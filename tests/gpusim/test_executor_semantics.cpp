/// Focused tests of the executor's semantic knobs: read_fraction,
/// pattern mode, fault transitions, divergence handling.

#include <gtest/gtest.h>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "matrices/generators.hpp"
#include "resilience/scenario.hpp"

namespace bars::gpusim {
namespace {

struct Sys {
  Csr a;
  Vector b;
  BlockJacobiKernel kernel;
  explicit Sys(index_t m = 10, index_t block = 20, index_t k = 1)
      : a(fv_like(m, 0.6)),
        b(static_cast<std::size_t>(a.rows()), 1.0),
        kernel(a, b, RowPartition::uniform(a.rows(), block), k) {}
  [[nodiscard]] value_t res(const Vector& x) const {
    return relative_residual(a, b, x);
  }
};

ExecutorResult run(const Sys& s, ExecutorOptions o) {
  AsyncExecutor ex(s.kernel, o);
  Vector x(s.b.size(), 0.0);
  return ex.run(x, [&](const Vector& v) { return s.res(v); });
}

TEST(ExecutorSemantics, ReadFractionChangesTrajectory) {
  Sys s;
  ExecutorOptions o;
  o.stopping.max_iters = 15;
  o.stopping.tol = 0.0;
  o.seed = 3;
  o.read_fraction = 0.0;
  const auto early = run(s, o);
  o.read_fraction = 1.0;
  const auto late = run(s, o);
  // Later reads see fresher values => faster convergence.
  EXPECT_LT(late.residual_history.back(), early.residual_history.back());
}

TEST(ExecutorSemantics, ReadFractionClamped) {
  Sys s;
  ExecutorOptions o;
  o.stopping.max_iters = 5;
  o.stopping.tol = 0.0;
  o.read_fraction = 7.0;  // clamped to 1; must not throw or misorder
  const auto r = run(s, o);
  EXPECT_EQ(r.global_iterations, 5);
}

TEST(ExecutorSemantics, PatternModeSharesScheduleAcrossSeeds) {
  Sys s;
  ExecutorOptions o;
  o.stopping.max_iters = 20;
  o.stopping.tol = 0.0;
  o.pattern_seed = 4242;
  o.run_noise = 0.0;  // no per-run noise: runs must be identical
  o.seed = 1;
  const auto r1 = run(s, o);
  o.seed = 2;
  const auto r2 = run(s, o);
  ASSERT_EQ(r1.residual_history.size(), r2.residual_history.size());
  for (std::size_t i = 0; i < r1.residual_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.residual_history[i], r2.residual_history[i]);
  }
}

TEST(ExecutorSemantics, PatternModeWithNoiseVariesSlightly) {
  Sys s;
  ExecutorOptions o;
  o.stopping.max_iters = 20;
  o.stopping.tol = 0.0;
  o.pattern_seed = 4242;
  o.run_noise = 1.0e-3;
  o.seed = 1;
  const auto r1 = run(s, o);
  o.seed = 2;
  const auto r2 = run(s, o);
  // Different but close: same order of magnitude at every checkpoint.
  bool differs = false;
  for (std::size_t i = 1; i < r1.residual_history.size(); ++i) {
    if (r1.residual_history[i] != r2.residual_history[i]) differs = true;
    if (r1.residual_history[i] > 1e-14) {
      const double ratio = r1.residual_history[i] / r2.residual_history[i];
      EXPECT_GT(ratio, 0.1);
      EXPECT_LT(ratio, 10.0);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(ExecutorSemantics, FaultFreezesExactFraction) {
  Sys s(16, 16, 1);
  ExecutorOptions o;
  o.stopping.max_iters = 12;
  o.stopping.tol = 0.0;
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/2, /*fraction=*/0.5, /*recover_after=*/std::nullopt,
      /*seed=*/77);
  AsyncExecutor ex(s.kernel, o);
  Vector x(s.b.size(), 0.0);
  const auto r =
      ex.run(x, [&](const Vector& v) { return s.res(v); });
  (void)r;
  // Re-derive the mask and check frozen components kept their value
  // from around the failure iteration: rerun without failure for 2
  // iterations and compare — frozen entries must deviate from the
  // converged run.
  ExecutorOptions clean = o;
  clean.scenario.reset();
  AsyncExecutor ex2(s.kernel, clean);
  Vector x2(s.b.size(), 0.0);
  (void)ex2.run(x2, [&](const Vector& v) { return s.res(v); });
  index_t differing = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i] - x2[i]) > 1e-12) ++differing;
  }
  // Roughly half the components froze early.
  EXPECT_GT(differing, static_cast<index_t>(x.size() / 4));
}

TEST(ExecutorSemantics, RecoveryTimingHonored) {
  Sys s(16, 32, 2);
  ExecutorOptions o;
  o.stopping.max_iters = 500;
  o.stopping.tol = 1e-11;
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/3, /*fraction=*/0.4, /*recover_after=*/6);
  const auto faulty = run(s, o);
  ASSERT_TRUE(faulty.ok());
  ExecutorOptions clean = o;
  clean.scenario.reset();
  const auto ok = run(s, clean);
  ASSERT_TRUE(ok.ok());
  // The outage window (6 iterations) must show up as extra iterations.
  EXPECT_GE(faulty.global_iterations, ok.global_iterations + 3);
}

TEST(ExecutorSemantics, HistoryAlignsWithIterationCount) {
  Sys s;
  ExecutorOptions o;
  o.stopping.max_iters = 17;
  o.stopping.tol = 0.0;
  const auto r = run(s, o);
  EXPECT_EQ(r.global_iterations, 17);
  EXPECT_EQ(r.residual_history.size(), 18u);
  EXPECT_EQ(r.time_history.size(), 18u);
}

TEST(ExecutorSemantics, ShuffledPolicyStillConverges) {
  Sys s(12, 12, 1);
  ExecutorOptions o;
  o.policy = SchedulePolicy::kShuffled;
  o.stopping.max_iters = 4000;
  o.stopping.tol = 1e-11;
  const auto r = run(s, o);
  EXPECT_TRUE(r.ok());
}

/// Four 5-row blocks over 20 rows with hand-scattered halos: runs of
/// length 1, runs one row apart, a run ending at row n - 1, one long
/// run spanning two owners, and an empty halo. update() checks that the
/// snapshot holds x[halo[i]] at every position, then moves its rows so
/// later snapshots see new values.
class ScatteredHaloKernel final : public BlockKernel {
 public:
  [[nodiscard]] index_t num_blocks() const override { return 4; }
  [[nodiscard]] index_t num_rows() const override { return 20; }
  [[nodiscard]] std::span<const index_t> halo(index_t block) const override {
    return halos_[static_cast<std::size_t>(block)];
  }
  [[nodiscard]] std::pair<index_t, index_t> rows(
      index_t block) const override {
    return {5 * block, 5 * block + 5};
  }
  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x, const ExecContext&) const override {
    const auto halo_idx = halo(block);
    EXPECT_EQ(halo_values.size(), halo_idx.size());
    value_t sum = 0.0;
    for (std::size_t i = 0; i < halo_idx.size(); ++i) {
      EXPECT_EQ(halo_values[i], x[halo_idx[i]])
          << "block " << block << " halo position " << i;
      sum += halo_values[i];
    }
    const auto [lo, hi] = rows(block);
    for (index_t i = lo; i < hi; ++i) {
      x[i] = 0.5 * x[i] + 0.01 * sum + static_cast<value_t>(i);
    }
    ++updates;
  }
  mutable index_t updates = 0;

 private:
  std::vector<std::vector<index_t>> halos_ = {
      {7, 9, 10, 11, 13, 14, 18, 19},
      {0, 2, 3, 11, 13, 19},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
      {}};
};

TEST(ExecutorSemantics, HaloSnapshotCopiesEveryRunExactly) {
  // One slot: no write lands between a block's READ and its WRITE, so
  // the snapshot must still equal x at the halo rows inside update().
  const ScatteredHaloKernel kernel;
  for (const SchedulePolicy policy :
       {SchedulePolicy::kRoundRobin, SchedulePolicy::kShuffled}) {
    ExecutorOptions o;
    o.concurrent_slots = 1;
    o.policy = policy;
    o.stopping.max_iters = 6;
    o.stopping.tol = 0.0;
    AsyncExecutor ex(kernel, o);
    Vector x(20);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 1.0 + static_cast<value_t>(i);
    }
    (void)ex.run(x, [](const Vector&) { return 1.0; });
  }
  EXPECT_GE(kernel.updates, 2 * 6 * 4);
}

}  // namespace
}  // namespace bars::gpusim
