#include "core/nonlinear.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/cancel.hpp"
#include "core/jacobi.hpp"
#include "matrices/generators.hpp"
#include "telemetry/observer.hpp"

namespace bars {
namespace {

TEST(NonlinearJacobi, ZeroNonlinearityMatchesLinearJacobi) {
  const Csr a = fv_like(8, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  SolveOptions o;
  o.max_iters = 40;
  o.tol = 0.0;
  const SolveResult lin = jacobi_solve(a, b, o);
  const SolveResult non =
      nonlinear_jacobi_solve(a, b, zero_nonlinearity(), o);
  ASSERT_EQ(lin.residual_history.size(), non.residual_history.size());
  for (std::size_t i = 0; i < lin.residual_history.size(); ++i) {
    EXPECT_NEAR(lin.residual_history[i], non.residual_history[i], 1e-13);
  }
}

TEST(NonlinearJacobi, SolvesCubicReactionSystem) {
  const Csr a = fv_like(8, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto phi = cubic_nonlinearity(0.5);
  SolveOptions o;
  o.max_iters = 5000;
  o.tol = 1e-12;
  const SolveResult r = nonlinear_jacobi_solve(a, b, phi, o);
  ASSERT_TRUE(r.ok());
  // Verify the nonlinear equation holds component-wise.
  Vector ax(b.size());
  a.spmv(r.x, ax);
  for (std::size_t i = 0; i < b.size(); ++i) {
    const value_t res =
        b[i] - ax[i] - phi.value(static_cast<index_t>(i), r.x[i]);
    EXPECT_NEAR(res, 0.0, 1e-10);
  }
}

TEST(NonlinearAsync, MatchesSynchronousSolution) {
  const Csr a = fv_like(10, 0.6);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.5 + 0.01 * double(i);
  const auto phi = cubic_nonlinearity(0.3);

  SolveOptions so;
  so.max_iters = 5000;
  so.tol = 1e-12;
  const SolveResult sync = nonlinear_jacobi_solve(a, b, phi, so);
  ASSERT_TRUE(sync.ok());

  NonlinearAsyncOptions ao;
  ao.block_size = 25;
  ao.local_iters = 3;
  ao.solve = so;
  const NonlinearAsyncResult async =
      nonlinear_block_async_solve(a, b, phi, ao);
  ASSERT_TRUE(async.solve.ok());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(async.solve.x[i], sync.x[i], 1e-9);
  }
}

TEST(NonlinearAsync, LocalItersAccelerate) {
  const Csr a = fv_like(12, 0.4);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto phi = exponential_nonlinearity(0.2);
  index_t prev = 1 << 30;
  for (index_t k : {1, 3, 6}) {
    NonlinearAsyncOptions o;
    o.block_size = 48;
    o.local_iters = k;
    o.solve.max_iters = 3000;
    o.solve.tol = 1e-10;
    const NonlinearAsyncResult r = nonlinear_block_async_solve(a, b, phi, o);
    ASSERT_TRUE(r.solve.ok()) << k;
    EXPECT_LE(r.solve.iterations, prev) << k;
    prev = r.solve.iterations;
  }
}

TEST(NonlinearAsync, ConvergesAcrossSeeds) {
  const Csr a = trefethen(150);
  const Vector b(150, 1.0);
  const auto phi = cubic_nonlinearity(0.1);
  for (std::uint64_t seed : {3ull, 33ull, 333ull}) {
    NonlinearAsyncOptions o;
    o.block_size = 32;
    o.local_iters = 2;
    o.seed = seed;
    o.solve.max_iters = 2000;
    o.solve.tol = 1e-11;
    const NonlinearAsyncResult r = nonlinear_block_async_solve(a, b, phi, o);
    EXPECT_TRUE(r.solve.ok()) << seed;
  }
}

TEST(NonlinearAsync, DampingStabilizesStiffNonlinearity) {
  const Csr a = fv_like(8, 0.3);
  const Vector b(static_cast<std::size_t>(a.rows()), 3.0);
  const auto phi = exponential_nonlinearity(1.0);  // stiff
  NonlinearAsyncOptions o;
  o.block_size = 32;
  o.local_iters = 2;
  o.damping = 0.7;
  o.solve.max_iters = 5000;
  o.solve.tol = 1e-10;
  const NonlinearAsyncResult r = nonlinear_block_async_solve(a, b, phi, o);
  EXPECT_TRUE(r.solve.ok());
}

TEST(NonlinearAsync, RejectsBadArguments) {
  const Csr a = poisson1d(4);
  const Vector b(4, 1.0);
  DiagonalNonlinearity empty;
  EXPECT_THROW((void)nonlinear_block_async_solve(a, b, empty),
               std::invalid_argument);
  NonlinearAsyncOptions o;
  o.damping = 0.0;
  EXPECT_THROW(
      (void)nonlinear_block_async_solve(a, b, zero_nonlinearity(), o),
      std::invalid_argument);
  EXPECT_THROW((void)nonlinear_jacobi_solve(a, b, zero_nonlinearity(), {},
                                            /*damping=*/1.5),
               std::invalid_argument);
}

TEST(NonlinearJacobi, PreTrippedTokenAborts) {
  const Csr a = fv_like(8, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  common::CancelToken token;
  token.request_cancel();
  SolveOptions o;
  o.cancel = &token;
  const SolveResult r =
      nonlinear_jacobi_solve(a, b, cubic_nonlinearity(0.5), o);
  EXPECT_EQ(r.status, SolverStatus::kAborted);
  EXPECT_EQ(r.iterations, 0);
}

TEST(NonlinearAsync, PreTrippedTokenAborts) {
  const Csr a = fv_like(8, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  common::CancelToken token;
  token.request_cancel();
  NonlinearAsyncOptions o;
  o.block_size = 16;
  o.solve.cancel = &token;
  const NonlinearAsyncResult r =
      nonlinear_block_async_solve(a, b, cubic_nonlinearity(0.5), o);
  EXPECT_EQ(r.solve.status, SolverStatus::kAborted);
  EXPECT_EQ(r.solve.iterations, 0);
}

/// Logs the observer callbacks in order: S(tart), I(teration),
/// C(ommit), R(ecovery), F(inish).
class SequenceObserver final : public telemetry::SolveObserver {
 public:
  void on_start(const telemetry::SolveStartEvent& ev) override {
    seq += 'S';
    start = ev;
  }
  void on_iteration(const telemetry::IterationEvent&) override { seq += 'I'; }
  void on_block_commit(const telemetry::BlockCommitEvent&) override {
    seq += 'C';
  }
  void on_recovery_event(const telemetry::RecoveryEvent&) override {
    seq += 'R';
  }
  void on_finish(const telemetry::SolveFinishEvent& ev) override {
    seq += 'F';
    finish = ev;
  }

  std::string seq;
  telemetry::SolveStartEvent start;
  telemetry::SolveFinishEvent finish;
};

TEST(NonlinearAsync, ObservedRunIsBracketedByStartAndFinish) {
  const Csr a = fv_like(8, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  NonlinearAsyncOptions o;
  o.block_size = 16;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-10;
  const auto phi = cubic_nonlinearity(0.5);
  const NonlinearAsyncResult plain = nonlinear_block_async_solve(a, b, phi, o);

  SequenceObserver obs;
  o.solve.telemetry.observer = &obs;
  const NonlinearAsyncResult seen = nonlinear_block_async_solve(a, b, phi, o);
  ASSERT_TRUE(seen.solve.ok()) << to_string(seen.solve.status);

  index_t commits = 0;
  for (index_t c : seen.block_executions) commits += c;
  ASSERT_GE(obs.seq.size(), 2u);
  EXPECT_EQ(obs.seq.front(), 'S');
  EXPECT_EQ(obs.seq.back(), 'F');
  EXPECT_EQ(std::count(obs.seq.begin(), obs.seq.end(), 'S'), 1);
  EXPECT_EQ(std::count(obs.seq.begin(), obs.seq.end(), 'F'), 1);
  EXPECT_EQ(std::count(obs.seq.begin(), obs.seq.end(), 'I'),
            seen.solve.iterations + 1);  // boundary 0 included
  EXPECT_EQ(std::count(obs.seq.begin(), obs.seq.end(), 'C'), commits);
  EXPECT_EQ(obs.start.rows, a.rows());
  EXPECT_EQ(obs.start.time_domain, telemetry::TimeDomain::kVirtual);
  EXPECT_EQ(obs.finish.status, seen.solve.status);
  EXPECT_EQ(obs.finish.iterations, seen.solve.iterations);
  EXPECT_EQ(obs.finish.block_commits, commits);

  // Observation is neutral to the iterate's bits.
  EXPECT_EQ(seen.solve.iterations, plain.solve.iterations);
  ASSERT_EQ(seen.solve.x.size(), plain.solve.x.size());
  for (std::size_t i = 0; i < plain.solve.x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seen.solve.x[i]),
              std::bit_cast<std::uint64_t>(plain.solve.x[i]))
        << "x[" << i << "]";
  }
}

}  // namespace
}  // namespace bars
