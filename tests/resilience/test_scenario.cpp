#include "resilience/scenario.hpp"

#include <gtest/gtest.h>

#include "core/block_async.hpp"
#include "matrices/generators.hpp"
#include "resilience/service_faults.hpp"

namespace bars {
namespace {

// ------------------------------------------------------- timeline unit tests

TEST(ScenarioTimeline, EventActiveExactlyInsideWindow) {
  resilience::FaultScenario s;
  s.fail_components(/*at=*/5, /*fraction=*/0.5, /*recover_after=*/10);
  resilience::ScenarioTimeline t(s, /*num_rows=*/100);
  t.advance(0);
  EXPECT_FALSE(t.any_component_failed());
  t.advance(4);
  EXPECT_FALSE(t.any_component_failed());
  t.advance(5);
  ASSERT_TRUE(t.any_component_failed());
  index_t frozen = 0;
  for (std::uint8_t m : *t.component_mask()) frozen += m;
  EXPECT_EQ(frozen, 50);
  t.advance(14);
  EXPECT_TRUE(t.any_component_failed());
  t.advance(15);  // at + duration: components reassigned
  EXPECT_FALSE(t.any_component_failed());
  EXPECT_EQ(t.component_mask(), nullptr);
}

TEST(ScenarioTimeline, ZeroDurationNeverObserved) {
  // recover_after = 0 is an immediate reassignment: the activation
  // and the reassignment coincide, so no write ever sees the mask.
  resilience::FaultScenario s;
  s.fail_components(5, 0.5, 0);
  resilience::ScenarioTimeline t(s, 100);
  for (index_t k = 0; k <= 20; ++k) {
    t.advance(k);
    EXPECT_FALSE(t.any_component_failed()) << "k=" << k;
  }
}

TEST(ScenarioTimeline, OverlappingFailuresUnionTheirMasks) {
  resilience::FaultScenario s;
  s.fail_components(2, 0.25, 20, /*seed=*/1)
      .fail_components(4, 0.25, 20, /*seed=*/2);
  resilience::ScenarioTimeline t(s, 1000);
  t.advance(2);
  index_t first = 0;
  for (std::uint8_t m : *t.component_mask()) first += m;
  EXPECT_EQ(first, 250);
  t.advance(4);
  index_t both = 0;
  for (std::uint8_t m : *t.component_mask()) both += m;
  // Independent seeds: the union is larger than either wave alone.
  EXPECT_GT(both, 250);
  EXPECT_LE(both, 500);
}

TEST(ScenarioTimeline, FullFractionFreezesEveryComponent) {
  resilience::FaultScenario s;
  s.fail_components(0, 1.0);
  resilience::ScenarioTimeline t(s, 64);
  t.advance(0);
  index_t frozen = 0;
  for (std::uint8_t m : *t.component_mask()) frozen += m;
  EXPECT_EQ(frozen, 64);
}

TEST(ScenarioTimeline, ReassignFreesComponentsAndReportsCount) {
  resilience::FaultScenario s;
  s.fail_components(0, 0.25, /*recover_after=*/std::nullopt);
  resilience::ScenarioTimeline t(s, 100);
  t.advance(0);
  ASSERT_TRUE(t.any_component_failed());
  EXPECT_EQ(t.reassign_failed_components(), 25);
  EXPECT_FALSE(t.any_component_failed());
  // The event is expired, not rescheduled: it never re-fires.
  t.advance(50);
  EXPECT_FALSE(t.any_component_failed());
  EXPECT_EQ(t.reassign_failed_components(), 0);
}

TEST(ScenarioTimeline, DeviceAndLinkQueries) {
  resilience::FaultScenario s;
  s.drop_device(3, /*device=*/1, /*rejoin_after=*/4).fail_link(10, 0, 5);
  resilience::ScenarioTimeline t(s, 10, /*num_devices=*/2);
  t.advance(0);
  EXPECT_FALSE(t.device_down(1));
  t.advance(3);
  EXPECT_TRUE(t.device_down(1));
  EXPECT_FALSE(t.device_down(0));
  EXPECT_FALSE(t.link_down(0));
  t.advance(7);
  EXPECT_FALSE(t.device_down(1));
  t.advance(10);
  EXPECT_TRUE(t.link_down(0));
  EXPECT_FALSE(t.link_down(1));
  t.advance(15);
  EXPECT_FALSE(t.link_down(0));
}

TEST(ScenarioTimeline, HaloCorruptionInjectsWithinWindow) {
  resilience::FaultScenario s;
  s.corrupt_halo(/*at=*/0, /*duration=*/5, /*magnitude=*/123.0,
                 /*probability=*/1.0);
  resilience::ScenarioTimeline t(s, 10);
  t.advance(0);
  ASSERT_TRUE(t.halo_corruption_active());
  Vector snap(4, 1.0);
  t.maybe_corrupt_halo(snap);
  index_t hits = 0;
  for (value_t v : snap) hits += v == 123.0 ? 1 : 0;
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(t.halo_corruptions(), 1);
  t.advance(5);
  EXPECT_FALSE(t.halo_corruption_active());
  Vector snap2(4, 1.0);
  t.maybe_corrupt_halo(snap2);
  EXPECT_EQ(t.halo_corruptions(), 1);
}

// ------------------------------------------------- scripted solve scenarios

Csr test_matrix() { return fv_like(20, 0.4); }

BlockAsyncOptions base_options() {
  BlockAsyncOptions o;
  o.block_size = 50;
  o.local_iters = 5;
  o.solve.max_iters = 400;
  o.solve.tol = 1e-13;
  o.seed = 7;
  return o;
}

TEST(ScenarioSolve, TwoFailureWavesRecoverToFaultFreeAccuracy) {
  // Acceptance scenario: 25% of components fail at iteration 10 and 10%
  // at iteration 40, each wave reassigned after 20 iterations. The run
  // must converge to the fault-free accuracy with bounded delay (the
  // paper's Section 4.5 claim, composed over two events).
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto clean = block_async_solve(a, b, base_options());
  ASSERT_TRUE(clean.solve.ok());

  BlockAsyncOptions o = base_options();
  resilience::FaultScenario s;
  s.fail_components(10, 0.25, 20, /*seed=*/11)
      .fail_components(40, 0.10, 20, /*seed=*/22);
  o.scenario = s;
  const auto rec = block_async_solve(a, b, o);
  ASSERT_TRUE(rec.solve.ok());
  EXPECT_LE(rec.solve.final_residual, 1e-13);
  // Bounded delay: both failure windows (2 x 20 iterations) plus slack.
  EXPECT_LE(rec.solve.iterations, clean.solve.iterations + 80);
  for (std::size_t i = 0; i < clean.solve.x.size(); ++i) {
    EXPECT_NEAR(rec.solve.x[i], clean.solve.x[i], 1e-9);
  }
}

TEST(ScenarioSolve, RepeatedFailuresOfSameComponentsConverge) {
  // The same seed fails the same components twice; the solve heals
  // after each wave.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  resilience::FaultScenario s;
  s.fail_components(5, 0.3, 10, /*seed=*/9)
      .fail_components(30, 0.3, 10, /*seed=*/9);
  o.scenario = s;
  const auto r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
}

TEST(ServiceFaults, BuildersPopulateServiceEventsOnly) {
  resilience::FaultScenario s;
  EXPECT_FALSE(s.has_service_events());
  s.stall_workers(0.5, 1.0, /*stall_s=*/0.1)
      .fail_plan_builds(2.0, 0.5)
      .flood_queue(3.0, 1.0, /*factor=*/4.0)
      .storm_deadlines(4.0, 1.0, /*deadline_ms=*/2.0);
  EXPECT_TRUE(s.has_service_events());
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(s.events.empty());  // no solver-level events created
  ASSERT_EQ(s.service_events.size(), 4u);
}

TEST(ServiceFaults, WindowArithmeticIsHalfOpen) {
  // Pure now_s overloads: windows are [at, at + duration) — testable
  // without sleeping or starting the injector's wall clock.
  resilience::FaultScenario s;
  s.stall_workers(1.0, 2.0, /*stall_s=*/0.25).fail_plan_builds(5.0, 1.0);
  const resilience::ServiceFaultInjector inj(s);

  EXPECT_EQ(inj.worker_stall_seconds(0.99), 0.0);
  EXPECT_EQ(inj.worker_stall_seconds(1.0), 0.25);   // inclusive start
  EXPECT_EQ(inj.worker_stall_seconds(2.99), 0.25);
  EXPECT_EQ(inj.worker_stall_seconds(3.0), 0.0);    // exclusive end

  EXPECT_FALSE(inj.plan_failure_active(4.99));
  EXPECT_TRUE(inj.plan_failure_active(5.0));
  EXPECT_FALSE(inj.plan_failure_active(6.0));

  // Last service-side window (stall or plan failure) ends at t = 6.
  EXPECT_DOUBLE_EQ(inj.last_service_window_end_seconds(), 6.0);
}

TEST(ServiceFaults, OverlappingWindowsCombineConservatively) {
  resilience::FaultScenario s;
  s.stall_workers(0.0, 2.0, /*stall_s=*/0.1)
      .stall_workers(1.0, 2.0, /*stall_s=*/0.5)
      .flood_queue(0.0, 2.0, /*factor=*/2.0)
      .flood_queue(1.0, 2.0, /*factor=*/8.0)
      .storm_deadlines(0.0, 2.0, /*deadline_ms=*/10.0)
      .storm_deadlines(1.0, 2.0, /*deadline_ms=*/1.0);
  const resilience::ServiceFaultInjector inj(s);

  // Longest stall, largest flood, tightest deadline win in overlap.
  EXPECT_EQ(inj.worker_stall_seconds(0.5), 0.1);
  EXPECT_EQ(inj.worker_stall_seconds(1.5), 0.5);
  EXPECT_EQ(inj.flood_factor(0.5), 2.0);
  EXPECT_EQ(inj.flood_factor(1.5), 8.0);
  EXPECT_EQ(inj.flood_factor(5.0), 1.0);  // neutral outside windows
  ASSERT_TRUE(inj.storm_deadline_ms(1.5).has_value());
  EXPECT_EQ(*inj.storm_deadline_ms(1.5), 1.0);
  EXPECT_FALSE(inj.storm_deadline_ms(5.0).has_value());
}

TEST(ServiceFaults, UnstartedInjectorPinsTheClockAtZero) {
  resilience::FaultScenario s;
  s.fail_plan_builds(0.0, 0.5).stall_workers(1.0, 1.0);
  resilience::ServiceFaultInjector inj(s);
  // Before start() the clock reads 0: only windows at t = 0 are live.
  EXPECT_EQ(inj.elapsed_seconds(), 0.0);
  EXPECT_TRUE(inj.plan_failure_active());
  EXPECT_EQ(inj.worker_stall_seconds(), 0.0);

  inj.count_stall();
  inj.count_plan_failure();
  inj.count_plan_failure();
  EXPECT_EQ(inj.stalls_injected(), 1u);
  EXPECT_EQ(inj.plan_failures_injected(), 2u);
}

TEST(ScenarioSolve, TransientHaloCorruptionIsRelaxedAway) {
  // Corrupted halo reads inject garbage mid-run; the asynchronous
  // iteration self-stabilizes once the window closes.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.solve.max_iters = 800;
  resilience::FaultScenario s;
  s.corrupt_halo(/*at=*/10, /*duration=*/5, /*magnitude=*/1e4,
                 /*probability=*/0.2);
  o.scenario = s;
  const auto r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_GT(r.resilience.halo_corruptions, 0);
}

}  // namespace
}  // namespace bars
