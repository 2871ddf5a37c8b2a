#include "core/silent_error.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/cancel.hpp"
#include "core/block_async.hpp"
#include "eigen/power_iteration.hpp"
#include "matrices/generators.hpp"
#include "stats/convergence.hpp"

namespace bars {
namespace {

std::vector<value_t> geometric(value_t start, value_t ratio, int n) {
  std::vector<value_t> h;
  value_t v = start;
  for (int i = 0; i < n; ++i) {
    h.push_back(v);
    v *= ratio;
  }
  return h;
}

TEST(Detector, CleanGeometricHistoryNotFlagged) {
  const auto rep = detect_silent_error(geometric(1.0, 0.5, 40));
  EXPECT_FALSE(rep.detected);
}

TEST(Detector, JumpFlagged) {
  auto h = geometric(1.0, 0.5, 20);
  h.push_back(h.back() * 1e5);  // corruption spike
  for (int i = 0; i < 5; ++i) h.push_back(h.back() * 0.5);
  const auto rep = detect_silent_error(h);
  ASSERT_TRUE(rep.detected);
  EXPECT_EQ(rep.at_iteration, 20);
  EXPECT_GT(rep.jump_ratio, 1e4);
}

TEST(Detector, StallFlagged) {
  auto h = geometric(1.0, 0.5, 15);
  for (int i = 0; i < 15; ++i) h.push_back(h.back());  // stagnation
  const auto rep = detect_silent_error(h);
  EXPECT_TRUE(rep.detected);
}

TEST(Detector, NanFlagged) {
  auto h = geometric(1.0, 0.5, 8);
  h.push_back(std::nan(""));
  EXPECT_TRUE(detect_silent_error(h).detected);
}

TEST(Detector, RoundingFloorNotFlagged) {
  auto h = geometric(1.0, 0.1, 16);        // down to 1e-15
  for (int i = 0; i < 20; ++i) h.push_back(8e-16);  // plateau at floor
  EXPECT_FALSE(detect_silent_error(h).detected);
}

TEST(Detector, ShortHistoryNotFlagged) {
  EXPECT_FALSE(detect_silent_error({1.0}).detected);
  EXPECT_FALSE(detect_silent_error({}).detected);
}

TEST(Detector, HistoryEntirelyAtFloorNotFlagged) {
  // A run that starts (and stays) at the rounding floor offers nothing
  // to judge; it must not be reported as a stall.
  const std::vector<value_t> h(30, 5e-14);
  EXPECT_FALSE(detect_silent_error(h).detected);
}

TEST(Detector, WarmupLongerThanHistoryNotFlagged) {
  resilience::AnomalyOptions o;
  o.warmup = 100;
  auto h = geometric(1.0, 0.5, 10);
  h.push_back(h.back() * 1e6);  // jump inside the warmup window
  EXPECT_FALSE(detect_silent_error(h, o).detected);
}

TEST(Detector, DegenerateOptionsAreSafe) {
  // Negative warmup / stall_window clamp to "never arm that check"
  // rather than UB; a clean decay stays clean, an obvious jump is
  // still caught once warmup (clamped to 0) has passed.
  resilience::AnomalyOptions o;
  o.warmup = -5;
  o.stall_window = -1;
  EXPECT_FALSE(detect_silent_error(geometric(1.0, 0.5, 20), o).detected);
  auto h = geometric(1.0, 0.5, 10);
  h.push_back(h.back() * 1e6);
  EXPECT_TRUE(detect_silent_error(h, o).detected);
}

TEST(Detector, NonPositiveSamplesSkippedNotFlagged) {
  // An exact zero residual (direct hit of the solution) is not an
  // anomaly.
  std::vector<value_t> h = geometric(1.0, 0.5, 10);
  h.push_back(0.0);
  h.push_back(0.0);
  EXPECT_FALSE(detect_silent_error(h).detected);
}

BlockAsyncOptions sdc_options() {
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 5;
  o.solve.max_iters = 500;
  o.solve.tol = 1e-12;
  // Clean reference runs are compared boundary by boundary with fault
  // runs, whose residual histories are always exact.
  o.exact_history = true;
  return o;
}

TEST(SdcRun, CleanRunNotFlaggedAndConverges) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const BlockAsyncResult r = block_async_solve(a, b, sdc_options());
  EXPECT_TRUE(r.solve.ok());
  EXPECT_FALSE(detect_silent_error(r.solve.residual_history).detected);
}

TEST(SdcRun, CorruptionDetectedAsJump) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = sdc_options();
  o.scenario = resilience::FaultScenario{}.corrupt_iterate(
      /*at=*/8, /*magnitude=*/1e8);
  const BlockAsyncResult r = block_async_solve(a, b, o);
  const SilentErrorReport rep = detect_silent_error(r.solve.residual_history);
  ASSERT_TRUE(rep.detected);
  EXPECT_NEAR(static_cast<double>(rep.at_iteration), 9.0, 2.0);
  EXPECT_GT(rep.jump_ratio, 100.0);
}

TEST(SdcRun, CorruptionLandsBeforeTheBoundaryResidual) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const BlockAsyncResult clean = block_async_solve(a, b, sdc_options());
  BlockAsyncOptions o = sdc_options();
  o.scenario = resilience::FaultScenario{}.corrupt_iterate(
      /*at=*/8, /*magnitude=*/1e8);
  const BlockAsyncResult r = block_async_solve(a, b, o);
  ASSERT_GT(r.solve.residual_history.size(), 9U);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(r.solve.residual_history[k], clean.solve.residual_history[k]);
  }
  EXPECT_GT(r.solve.residual_history[8],
            1e3 * clean.solve.residual_history[8]);
}

TEST(SdcRun, SolverHealsAfterCorruption) {
  // The asynchronous iteration is self-stabilizing: once corrupted
  // values are relaxed away, it still converges to the true solution
  // (this is *why* silent errors need detection — they only cost time).
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = sdc_options();
  o.solve.max_iters = 1000;
  o.scenario = resilience::FaultScenario{}.corrupt_iterate(
      /*at=*/8, /*magnitude=*/1e8);
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_LE(relative_residual(a, b, r.solve.x), 1e-11);
}

TEST(SdcRun, RejectsBadComponent) {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  BlockAsyncOptions o;
  o.scenario = resilience::FaultScenario{}.corrupt_iterate(
      /*at=*/10, /*magnitude=*/1e6, /*component=*/99);
  EXPECT_THROW((void)block_async_solve(a, b, o), std::invalid_argument);
  EXPECT_THROW((void)resilience::ScenarioTimeline(*o.scenario, 8),
               std::invalid_argument);
  EXPECT_NO_THROW((void)resilience::ScenarioTimeline(
      resilience::FaultScenario{}.corrupt_iterate(10, 1e6, 7), 8));
}

TEST(SdcRun, RejectsCorruptionBeforeTheFirstBoundary) {
  // Boundary 0 is the initial residual, taken before any block runs.
  EXPECT_THROW((void)resilience::ScenarioTimeline(
                   resilience::FaultScenario{}.corrupt_iterate(0, 1e6), 8),
               std::invalid_argument);
  EXPECT_NO_THROW((void)resilience::ScenarioTimeline(
      resilience::FaultScenario{}.corrupt_iterate(1, 1e6), 8));
}

TEST(SdcRun, HonoursCancelAndInitialGuess) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = sdc_options();
  o.scenario = resilience::FaultScenario{}.corrupt_iterate(
      /*at=*/8, /*magnitude=*/1e8);

  common::CancelToken token;
  token.request_cancel();
  BlockAsyncOptions cancelled = o;
  cancelled.solve.cancel = &token;
  const BlockAsyncResult c = block_async_solve(a, b, cancelled);
  EXPECT_EQ(c.solve.status, SolverStatus::kAborted);
  EXPECT_EQ(c.solve.iterations, 0);

  // Started from a converged iterate, the run converges before the
  // corruption's boundary comes.
  const BlockAsyncResult clean = block_async_solve(a, b, sdc_options());
  ASSERT_TRUE(clean.solve.ok());
  const BlockAsyncResult warm = block_async_solve(a, b, o, &clean.solve.x);
  EXPECT_EQ(warm.solve.residual_history.front(),
            relative_residual(a, b, clean.solve.x));
  EXPECT_TRUE(warm.solve.ok());
  EXPECT_LT(warm.solve.iterations, 8);
}

TEST(SdcRun, CorruptsEveryDeviceView) {
  // On a device layout the corruption hits the canonical iterate and
  // every device's view. Under AMC each device computes on its own
  // view, so a corruption of x alone would vanish at the owner's next
  // commit; in the views it spreads, and the residual stays high.
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  for (auto scheme :
       {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
        gpusim::TransferScheme::kDK}) {
    BlockAsyncOptions o = sdc_options();
    o.solve.max_iters = 1000;
    o.num_devices = 2;
    o.scheme = scheme;
    const BlockAsyncResult clean = block_async_solve(a, b, o);
    o.scenario = resilience::FaultScenario{}.corrupt_iterate(
        /*at=*/8, /*magnitude=*/1e8, /*component=*/a.rows() - 1);
    const BlockAsyncResult r = block_async_solve(a, b, o);
    ASSERT_TRUE(clean.solve.ok()) << to_string(scheme);
    ASSERT_TRUE(r.solve.ok()) << to_string(scheme);
    ASSERT_GT(r.solve.residual_history.size(), 11U);
    for (std::size_t k = 8; k <= 11; ++k) {
      EXPECT_GT(r.solve.residual_history[k],
                1e3 * clean.solve.residual_history[k])
          << to_string(scheme) << " at boundary " << k;
    }
    EXPECT_GT(r.solve.iterations, clean.solve.iterations);
  }
}

TEST(AsyncRateBound, MeasuredRateBeatsWorstCase) {
  // Chazan-Miranker envelope: any schedule with bounded shift s
  // contracts at least as fast as rho(|B|)^{1/(1+s)} asymptotically.
  const Csr a = trefethen(300);
  const Vector b(300, 1.0);
  const value_t rho_abs = async_spectral_radius(a).value;
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 1;
  o.solve.max_iters = 200;
  o.solve.tol = 0.0;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  const value_t measured = contraction_factor(r.solve.residual_history, 80);
  const value_t bound =
      async_worst_case_rate(rho_abs, r.max_staleness);
  EXPECT_GT(measured, 0.0);
  EXPECT_LE(measured, bound + 0.02);
}

TEST(AsyncRateBound, Formula) {
  EXPECT_DOUBLE_EQ(async_worst_case_rate(0.81, 0), 0.81);
  EXPECT_NEAR(async_worst_case_rate(0.64, 1), 0.8, 1e-12);
  EXPECT_THROW((void)async_worst_case_rate(-0.1, 0), std::invalid_argument);
  EXPECT_THROW((void)async_worst_case_rate(0.5, -1), std::invalid_argument);
}

}  // namespace
}  // namespace bars
