#include "gpusim/async_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "matrices/generators.hpp"
#include "sparse/partition.hpp"

namespace bars::gpusim {
namespace {

struct Fixture {
  Csr a;
  Vector b;
  BlockJacobiKernel kernel;
  Fixture(index_t n, index_t block, index_t local_iters)
      : a(poisson1d(n)),
        b(static_cast<std::size_t>(n), 1.0),
        kernel(a, b, RowPartition::uniform(n, block), local_iters) {}
  [[nodiscard]] value_t residual(const Vector& x) const {
    return relative_residual(a, b, x);
  }
};

TEST(AsyncExecutor, ConvergesOnPoisson) {
  Fixture s(64, 16, 1);
  ExecutorOptions o;
  o.stopping.max_iters = 60000;  // rho(B) = cos(pi/65): slow but sure
  o.stopping.tol = 1e-12;
  AsyncExecutor ex(s.kernel, o);
  Vector x(64, 0.0);
  const auto r = ex.run(x, [&](const Vector& v) { return s.residual(v); });
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.status == bars::SolverStatus::kDiverged);
  EXPECT_LE(r.residual_history.back(), 1e-12);
}

TEST(AsyncExecutor, DeterministicGivenSeed) {
  Fixture s(48, 8, 2);
  ExecutorOptions o;
  o.stopping.max_iters = 30;
  o.stopping.tol = 0.0;
  o.seed = 1234;
  Vector x1(48, 0.0), x2(48, 0.0);
  const auto r1 = AsyncExecutor(s.kernel, o).run(
      x1, [&](const Vector& v) { return s.residual(v); });
  const auto r2 = AsyncExecutor(s.kernel, o).run(
      x2, [&](const Vector& v) { return s.residual(v); });
  ASSERT_EQ(r1.residual_history.size(), r2.residual_history.size());
  for (std::size_t i = 0; i < r1.residual_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.residual_history[i], r2.residual_history[i]);
  }
  EXPECT_EQ(x1, x2);
}

TEST(AsyncExecutor, DifferentSeedsGiveDifferentTrajectories) {
  Fixture s(48, 8, 1);
  ExecutorOptions o;
  o.stopping.max_iters = 20;
  o.stopping.tol = 0.0;
  Vector x1(48, 0.0), x2(48, 0.0);
  o.seed = 1;
  const auto r1 = AsyncExecutor(s.kernel, o).run(
      x1, [&](const Vector& v) { return s.residual(v); });
  o.seed = 2;
  const auto r2 = AsyncExecutor(s.kernel, o).run(
      x2, [&](const Vector& v) { return s.residual(v); });
  // Chaotic: some mid-run residual should differ.
  bool differs = false;
  for (std::size_t i = 1;
       i < std::min(r1.residual_history.size(), r2.residual_history.size());
       ++i) {
    if (r1.residual_history[i] != r2.residual_history[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(AsyncExecutor, BlockExecutionCountsBalanced) {
  // Chazan-Miranker condition 1: every block updated "infinitely often"
  // — with FIFO requeue the counts stay within a small spread.
  Fixture s(100, 10, 1);
  ExecutorOptions o;
  o.stopping.max_iters = 50;
  o.stopping.tol = 0.0;
  Vector x(100, 0.0);
  const auto r = AsyncExecutor(s.kernel, o).run(
      x, [&](const Vector& v) { return s.residual(v); });
  const auto [mn, mx] = std::minmax_element(r.block_executions.begin(),
                                            r.block_executions.end());
  EXPECT_GT(*mn, 0);
  // Spread is bounded by the executor's generation-skew gate (+1 for
  // the in-flight execution at the stopping instant).
  EXPECT_LE(*mx - *mn, ExecutorOptions{}.max_generation_skew + 1);
}

TEST(AsyncExecutor, StalenessBounded) {
  // Chazan-Miranker condition 2: bounded shift.
  Fixture s(128, 8, 1);
  ExecutorOptions o;
  o.stopping.max_iters = 100;
  o.stopping.tol = 0.0;
  o.straggler_factor = 3.0;
  Vector x(128, 0.0);
  const auto r = AsyncExecutor(s.kernel, o).run(
      x, [&](const Vector& v) { return s.residual(v); });
  EXPECT_LE(r.max_staleness, 10);
}

TEST(AsyncExecutor, RoundRobinPolicyIsJitterFree) {
  Fixture s(32, 8, 1);
  ExecutorOptions o;
  o.policy = SchedulePolicy::kRoundRobin;
  o.stopping.max_iters = 25;
  o.stopping.tol = 0.0;
  o.seed = 5;
  Vector x1(32, 0.0), x2(32, 0.0);
  const auto r1 = AsyncExecutor(s.kernel, o).run(
      x1, [&](const Vector& v) { return s.residual(v); });
  o.seed = 99;  // seed must not matter for round-robin
  const auto r2 = AsyncExecutor(s.kernel, o).run(
      x2, [&](const Vector& v) { return s.residual(v); });
  EXPECT_EQ(x1, x2);
}

TEST(AsyncExecutor, VirtualTimeAdvancesWithIterations) {
  Fixture s(64, 16, 1);
  ExecutorOptions o;
  o.stopping.max_iters = 10;
  o.stopping.tol = 0.0;
  o.global_iteration_time = 2.0e-3;
  Vector x(64, 0.0);
  const auto r = AsyncExecutor(s.kernel, o).run(
      x, [&](const Vector& v) { return s.residual(v); });
  ASSERT_GE(r.time_history.size(), 2u);
  EXPECT_DOUBLE_EQ(r.time_history.front(), 0.0);
  for (std::size_t i = 1; i < r.time_history.size(); ++i) {
    EXPECT_GT(r.time_history[i], r.time_history[i - 1]);
  }
  // ~10 global iterations at ~2 ms each, within jitter bounds.
  EXPECT_NEAR(r.virtual_time, 10 * 2.0e-3, 10 * 2.0e-3 * 0.6);
}

TEST(AsyncExecutor, DivergesOnRhoGreaterThanOne) {
  const index_t m = 12;
  const Csr a = structural_like(m, structural_diag_for_rho(m, 2.65));
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const BlockJacobiKernel kernel(a, b, RowPartition::uniform(a.rows(), 16),
                                 1);
  ExecutorOptions o;
  o.stopping.max_iters = 4000;
  o.stopping.tol = 1e-14;
  o.stopping.divergence_limit = 1e12;
  AsyncExecutor ex(kernel, o);
  Vector x(static_cast<std::size_t>(a.rows()), 0.0);
  const auto r =
      ex.run(x, [&](const Vector& v) { return relative_residual(a, b, v); });
  EXPECT_TRUE(r.status == bars::SolverStatus::kDiverged);
  EXPECT_FALSE(r.ok());
}

TEST(AsyncExecutor, RejectsBadOptions) {
  Fixture s(16, 4, 1);
  ExecutorOptions o;
  o.concurrent_slots = 0;
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
  o.concurrent_slots = 4;
  o.global_iteration_time = 0.0;
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
}

TEST(AsyncExecutor, XSizeMismatchThrows) {
  Fixture s(16, 4, 1);
  AsyncExecutor ex(s.kernel, {});
  Vector x(8, 0.0);
  EXPECT_THROW(
      (void)ex.run(x, [&](const Vector& v) { return s.residual(v); }),
      std::invalid_argument);
}

}  // namespace
}  // namespace bars::gpusim
