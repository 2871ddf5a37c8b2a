#include "resilience/recovery.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/block_async.hpp"
#include "core/silent_error.hpp"
#include "matrices/generators.hpp"

namespace bars {
namespace {

// ------------------------------------------------------------ CheckpointStore

TEST(CheckpointStore, SavesOnlyAtIntervalBoundaries) {
  resilience::CheckpointOptions o;
  o.interval = 5;
  resilience::CheckpointStore cp(o);
  const Vector x(3, 1.0);
  for (index_t k = 0; k <= 4; ++k) cp.observe(k, 0.1, x);
  EXPECT_FALSE(cp.has());
  cp.observe(5, 0.1, x);
  ASSERT_TRUE(cp.has());
  EXPECT_EQ(cp.best().iteration, 5);
  EXPECT_EQ(cp.saved_count(), 1);
}

TEST(CheckpointStore, KeepsBestResidualOnly) {
  resilience::CheckpointOptions o;
  o.interval = 5;
  resilience::CheckpointStore cp(o);
  cp.observe(5, 1e-2, Vector{1.0});
  cp.observe(10, 1.0, Vector{2.0});  // worse: rejected
  EXPECT_EQ(cp.best().iteration, 5);
  EXPECT_EQ(cp.best().x[0], 1.0);
  cp.observe(15, 1e-4, Vector{3.0});  // better: replaces
  EXPECT_EQ(cp.best().iteration, 15);
  EXPECT_EQ(cp.best().residual, 1e-4);
  EXPECT_EQ(cp.saved_count(), 2);
}

TEST(CheckpointStore, NonFiniteResidualNeverSaved) {
  resilience::CheckpointStore cp({.interval = 1});
  cp.observe(1, std::numeric_limits<value_t>::quiet_NaN(), Vector{1.0});
  cp.observe(2, std::numeric_limits<value_t>::infinity(), Vector{1.0});
  EXPECT_FALSE(cp.has());
}

// --------------------------------------------------- OnlineResidualDetector

TEST(OnlineDetector, CleanGeometricDecayHasNoAnomaly) {
  resilience::OnlineResidualDetector d;
  value_t r = 1.0;
  for (int k = 0; k < 40; ++k, r *= 0.5) {
    EXPECT_FALSE(d.push(r).has_value()) << "k=" << k;
  }
}

TEST(OnlineDetector, JumpFlaggedAtTheJumpSample) {
  resilience::OnlineResidualDetector d;
  value_t r = 1.0;
  std::optional<resilience::Anomaly> hit;
  for (int k = 0; k < 30 && !hit; ++k) {
    hit = d.push(k == 20 ? r * 1e3 : r);
    if (!hit) r *= 0.5;
  }
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, resilience::AnomalyKind::kJump);
  EXPECT_EQ(hit->at_iteration, 20);
  EXPECT_GT(hit->jump_ratio, 100.0);
}

TEST(OnlineDetector, StallFlaggedOnceWindowFills) {
  resilience::OnlineResidualDetector d;
  value_t r = 1.0;
  for (int k = 0; k < 10; ++k, r *= 0.5) {
    ASSERT_FALSE(d.push(r).has_value());
  }
  std::optional<resilience::Anomaly> hit;
  int pushes = 0;
  while (!hit && pushes < 30) {
    hit = d.push(r);  // frozen residual
    ++pushes;
  }
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, resilience::AnomalyKind::kStall);
}

TEST(OnlineDetector, NonFiniteFlaggedImmediately) {
  resilience::OnlineResidualDetector d;
  (void)d.push(1.0);
  const auto hit = d.push(std::numeric_limits<value_t>::quiet_NaN());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, resilience::AnomalyKind::kNonFinite);
}

TEST(OnlineDetector, FlatAtRoundingFloorNotFlagged) {
  resilience::OnlineResidualDetector d;
  for (int k = 0; k < 40; ++k) {
    EXPECT_FALSE(d.push(1e-15).has_value());
  }
}

TEST(OnlineDetector, WarmupSuppressesEarlyJump) {
  resilience::OnlineResidualDetector d;
  (void)d.push(1.0);
  (void)d.push(0.5);
  EXPECT_FALSE(d.push(500.0).has_value());  // trend not yet armed
}

TEST(OnlineDetector, ResetRequiresFreshEvidenceForStall) {
  resilience::AnomalyOptions o;
  o.stall_window = 5;
  resilience::OnlineResidualDetector d(o);
  value_t r = 1.0;
  for (int k = 0; k < 10; ++k, r *= 0.5) (void)d.push(r);
  d.reset(r);
  // Fewer than stall_window flat samples after the reset: not flagged.
  for (int k = 0; k < 4; ++k) {
    EXPECT_FALSE(d.push(r).has_value());
  }
}

TEST(OnlineDetector, StreamingMatchesBatchDetector) {
  // Replay equivalence: the streaming detector fed sample-by-sample must
  // agree with core::detect_silent_error on the full history.
  std::vector<value_t> history;
  value_t r = 1.0;
  for (int k = 0; k < 35; ++k) {
    history.push_back(k == 17 ? r * 5e3 : r);
    r *= 0.6;
  }
  const SilentErrorReport batch = detect_silent_error(history);
  resilience::OnlineResidualDetector online;
  std::optional<resilience::Anomaly> hit;
  for (value_t s : history) {
    if ((hit = online.push(s))) break;
  }
  ASSERT_TRUE(batch.detected);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at_iteration, batch.at_iteration);
  EXPECT_EQ(hit->jump_ratio, batch.jump_ratio);
}

// ------------------------------------------------------------------ Watchdog

TEST(Watchdog, StalledBlockFlaggedOnceThenRearmed) {
  resilience::WatchdogOptions o;
  o.check_interval = 5;
  resilience::Watchdog w(o, /*num_blocks=*/4);
  std::vector<index_t> execs = {5, 5, 5, 5};
  auto v = w.observe(5, 0.5, execs);
  EXPECT_TRUE(v.newly_stalled_blocks.empty());  // all advanced equally
  execs = {10, 10, 5, 10};  // block 2 frozen
  v = w.observe(10, 0.25, execs);
  ASSERT_EQ(v.newly_stalled_blocks.size(), 1u);
  EXPECT_EQ(v.newly_stalled_blocks[0], 2);
  execs = {15, 15, 5, 15};  // still frozen: not re-reported
  v = w.observe(15, 0.12, execs);
  EXPECT_TRUE(v.newly_stalled_blocks.empty());
  execs = {20, 20, 10, 20};  // revived...
  v = w.observe(20, 0.06, execs);
  EXPECT_TRUE(v.newly_stalled_blocks.empty());
  execs = {25, 25, 10, 25};  // ...and frozen again: re-reported
  v = w.observe(25, 0.03, execs);
  ASSERT_EQ(v.newly_stalled_blocks.size(), 1u);
  EXPECT_EQ(v.newly_stalled_blocks[0], 2);
}

TEST(Watchdog, FlatResidualTriggersReassignment) {
  resilience::WatchdogOptions o;
  o.check_interval = 5;
  o.stall_checks = 2;
  resilience::Watchdog w(o, 0);
  const std::vector<index_t> none;
  EXPECT_FALSE(w.observe(5, 0.5, none).reassign);
  EXPECT_FALSE(w.observe(10, 0.5, none).reassign);
  // Third inspection: no contraction over two full check periods.
  EXPECT_TRUE(w.observe(15, 0.5, none).reassign);
  // Re-armed: needs the full stall_checks history again.
  EXPECT_FALSE(w.observe(20, 0.5, none).reassign);
  EXPECT_TRUE(w.observe(25, 0.5, none).reassign);
}

TEST(Watchdog, DivergenceRequestsDampedRestart) {
  resilience::WatchdogOptions o;
  o.divergence_factor = 1e4;
  resilience::Watchdog w(o, 0);
  const std::vector<index_t> none;
  EXPECT_FALSE(w.observe(1, 1.0, none).damped_restart);
  EXPECT_FALSE(w.observe(2, 0.5, none).damped_restart);
  EXPECT_FALSE(w.observe(3, 100.0, none).damped_restart);  // below factor
  EXPECT_TRUE(w.observe(4, 1e4, none).damped_restart);
  EXPECT_TRUE(
      w.observe(5, std::numeric_limits<value_t>::infinity(), none)
          .damped_restart);
}

// ------------------------------------------------------- integrated recovery

Csr test_matrix() { return fv_like(20, 0.4); }

BlockAsyncOptions base_options() {
  BlockAsyncOptions o;
  o.block_size = 50;
  o.local_iters = 5;
  o.solve.max_iters = 600;
  o.solve.tol = 1e-13;
  o.seed = 7;
  return o;
}

TEST(Recovery, SdcRollbackConvergesFasterThanRunThrough) {
  // Acceptance criterion: an injected SDC triggers online detection and
  // checkpoint rollback, converging in fewer global iterations than the
  // run-through baseline that relaxes the corruption away.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.scenario = resilience::FaultScenario{}.corrupt_iterate(
      /*at=*/12, /*magnitude=*/1.0e6);

  const auto through = block_async_solve(a, b, o);
  ASSERT_TRUE(through.solve.ok());
  // The post-hoc batch scan sees it.
  ASSERT_TRUE(detect_silent_error(through.solve.residual_history).detected);

  o.resilience = resilience::Policy{};
  const auto rolled = block_async_solve(a, b, o);
  ASSERT_TRUE(rolled.solve.ok());
  EXPECT_GE(rolled.resilience.detections, 1);
  EXPECT_GE(rolled.resilience.rollbacks, 1);
  EXPECT_GT(rolled.resilience.checkpoints_saved, 0);
  EXPECT_LT(rolled.solve.iterations, through.solve.iterations);
}

TEST(Recovery, WatchdogReassignsPermanentlyFailedComponents) {
  // A failure wave that never recovers stagnates the legacy run; the
  // watchdog detects the contraction stall and reassigns the failed
  // components, letting the supervised run converge.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  resilience::FaultScenario s;
  s.fail_components(/*at=*/10, /*fraction=*/0.2,
                    /*recover_after=*/std::nullopt);

  BlockAsyncOptions plain = base_options();
  plain.solve.max_iters = 200;
  plain.scenario = s;
  const auto stuck = block_async_solve(a, b, plain);
  EXPECT_FALSE(stuck.solve.ok());

  BlockAsyncOptions guarded = base_options();
  guarded.scenario = s;
  guarded.resilience = resilience::Policy{};
  const auto rescued = block_async_solve(a, b, guarded);
  ASSERT_TRUE(rescued.solve.ok());
  EXPECT_GE(rescued.resilience.watchdog_reassignments, 1);
  EXPECT_GT(rescued.resilience.components_reassigned, 0);
}

TEST(Recovery, DampedRestartFiresOnDivergence) {
  // The structural surrogate with rho(B) > 1 diverges under Jacobi-type
  // sweeps (paper Section 4.2); the watchdog spends its restart budget
  // before the run is declared diverged.
  const Csr a = structural_like(12, structural_diag_for_rho(12, 1.3));
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.solve.max_iters = 300;
  o.resilience = resilience::Policy{};
  const auto r = block_async_solve(a, b, o);
  EXPECT_FALSE(r.solve.ok());
  EXPECT_TRUE(r.solve.status == bars::SolverStatus::kDiverged);
  EXPECT_GE(r.resilience.damped_restarts, 1);
}

TEST(Recovery, PolicyOnCleanRunIsInert) {
  // With no faults and no SDC the policy must not change the verdict,
  // and the report shows checkpoints but no interventions.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto plain = block_async_solve(a, b, base_options());
  BlockAsyncOptions o = base_options();
  o.resilience = resilience::Policy{};
  const auto guarded = block_async_solve(a, b, o);
  ASSERT_TRUE(plain.solve.ok());
  ASSERT_TRUE(guarded.solve.ok());
  EXPECT_EQ(guarded.solve.iterations, plain.solve.iterations);
  EXPECT_GT(guarded.resilience.checkpoints_saved, 0);
  EXPECT_EQ(guarded.resilience.rollbacks, 0);
  EXPECT_EQ(guarded.resilience.damped_restarts, 0);
  EXPECT_EQ(guarded.resilience.watchdog_reassignments, 0);
}

}  // namespace
}  // namespace bars
