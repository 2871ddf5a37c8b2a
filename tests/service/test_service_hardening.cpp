#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "matrices/generators.hpp"
#include "resilience/service_faults.hpp"
#include "service/circuit_breaker.hpp"
#include "service/degradation.hpp"
#include "service/latency_tracker.hpp"
#include "service/retry_policy.hpp"
#include "service/solve_service.hpp"

namespace bars::service {
namespace {

using std::chrono::milliseconds;

[[nodiscard]] std::shared_ptr<const Csr> shared_fv(index_t n, value_t rho) {
  return std::make_shared<const Csr>(fv_like(n, rho));
}

/// Off-diagonal-only matrix: BlockJacobiKernel construction fails
/// (zero diagonal), so every plan-path attempt fails deterministically.
[[nodiscard]] std::shared_ptr<const Csr> shared_bad() {
  return std::make_shared<const Csr>(
      Csr(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0}));
}

[[nodiscard]] SolveRequest small_request(std::shared_ptr<const Csr> a) {
  SolveRequest req;
  req.matrix = std::move(a);
  req.b = Vector(static_cast<std::size_t>(req.matrix->rows()), 1.0);
  req.options.solve.max_iters = 20000;
  req.options.solve.tol = 1e-10;
  req.options.block_size = 32;
  req.options.local_iters = 2;
  return req;
}

/// Poll `pred` up to `timeout`; true when it held before the timeout.
template <typename Pred>
[[nodiscard]] bool eventually(Pred pred, milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return pred();
}

// ---------------------------------------------------------------------
// Pure policy units (no service, no threads, no clocks).

TEST(RetryPolicyUnit, NoBackoffBeforeFirstRetry) {
  RetryPolicy rp;
  EXPECT_FALSE(rp.retries_enabled());
  EXPECT_EQ(rp.backoff(1, 0.5).count(), 0);
}

TEST(RetryPolicyUnit, ExponentialBackoffWithCapAndJitterBounds) {
  RetryPolicy rp;
  rp.max_attempts = 4;
  rp.backoff_base = milliseconds(20);
  rp.backoff_multiplier = 2.0;
  rp.backoff_cap = milliseconds(50);
  rp.jitter = 0.0;
  EXPECT_TRUE(rp.retries_enabled());
  EXPECT_EQ(rp.backoff(2, 0.0).count(), 20);  // first retry = base
  EXPECT_EQ(rp.backoff(3, 0.0).count(), 40);
  EXPECT_EQ(rp.backoff(4, 0.0).count(), 50);  // capped, not 80

  rp.jitter = 0.5;
  // jitter_u = 0 -> factor 1 - jitter; jitter_u -> 1 -> factor 1 + jitter.
  EXPECT_EQ(rp.backoff(2, 0.0).count(), 10);
  EXPECT_EQ(rp.backoff(2, 0.999).count(), 29);
}

TEST(CircuitBreakerUnit, TripsAfterConsecutiveFailuresAndRejectsFast) {
  CircuitBreakerOptions o;
  o.enabled = true;
  o.failure_threshold = 2;
  o.open_duration = milliseconds(100);
  CircuitBreaker cb(o);
  const PlanConfig cfg{};
  CircuitBreaker::Clock::time_point t{};

  EXPECT_TRUE(cb.allow(1, cfg, t));
  cb.record_failure(1, cfg, t);
  EXPECT_TRUE(cb.allow(1, cfg, t));  // one failure is below threshold
  cb.record_failure(1, cfg, t);
  EXPECT_EQ(cb.state(1, cfg, t), BreakerState::kOpen);
  EXPECT_FALSE(cb.allow(1, cfg, t + milliseconds(50)));

  const CircuitBreakerStats s = cb.stats();
  EXPECT_EQ(s.trips, 1u);
  EXPECT_EQ(s.rejections, 1u);
  EXPECT_EQ(s.open, 1u);
}

TEST(CircuitBreakerUnit, HalfOpenAdmitsOneProbeAndRecovers) {
  CircuitBreakerOptions o;
  o.enabled = true;
  o.failure_threshold = 1;
  o.open_duration = milliseconds(100);
  CircuitBreaker cb(o);
  const PlanConfig cfg{};
  CircuitBreaker::Clock::time_point t{};
  cb.record_failure(7, cfg, t);
  ASSERT_EQ(cb.state(7, cfg, t), BreakerState::kOpen);

  const auto later = t + milliseconds(101);
  EXPECT_EQ(cb.state(7, cfg, later), BreakerState::kHalfOpen);
  EXPECT_TRUE(cb.allow(7, cfg, later));    // the probe slot
  EXPECT_FALSE(cb.allow(7, cfg, later));   // only one probe at a time
  cb.record_success(7, cfg);
  EXPECT_EQ(cb.state(7, cfg, later), BreakerState::kClosed);
  EXPECT_TRUE(cb.allow(7, cfg, later));

  const CircuitBreakerStats s = cb.stats();
  EXPECT_EQ(s.probes, 1u);
  EXPECT_EQ(s.recoveries, 1u);
}

TEST(CircuitBreakerUnit, FailedProbeReopensForAnotherWindow) {
  CircuitBreakerOptions o;
  o.enabled = true;
  o.failure_threshold = 1;
  o.open_duration = milliseconds(100);
  CircuitBreaker cb(o);
  const PlanConfig cfg{};
  CircuitBreaker::Clock::time_point t{};
  cb.record_failure(9, cfg, t);
  const auto probe_time = t + milliseconds(150);
  ASSERT_TRUE(cb.allow(9, cfg, probe_time));
  cb.record_failure(9, cfg, probe_time);
  EXPECT_EQ(cb.state(9, cfg, probe_time), BreakerState::kOpen);
  // The new window is anchored at the failed probe.
  EXPECT_EQ(cb.state(9, cfg, probe_time + milliseconds(99)),
            BreakerState::kOpen);
  EXPECT_EQ(cb.state(9, cfg, probe_time + milliseconds(101)),
            BreakerState::kHalfOpen);
  EXPECT_EQ(cb.stats().trips, 2u);
}

TEST(CircuitBreakerUnit, ReleaseFreesAWedgedProbeSlot) {
  CircuitBreakerOptions o;
  o.enabled = true;
  o.failure_threshold = 1;
  o.open_duration = milliseconds(10);
  CircuitBreaker cb(o);
  const PlanConfig cfg{};
  CircuitBreaker::Clock::time_point t{};
  cb.record_failure(3, cfg, t);
  const auto later = t + milliseconds(11);
  ASSERT_TRUE(cb.allow(3, cfg, later));
  ASSERT_FALSE(cb.allow(3, cfg, later));
  // The probe was cancelled before delivering a verdict: without
  // release() the breaker could never probe again.
  cb.release(3, cfg);
  EXPECT_TRUE(cb.allow(3, cfg, later));
}

TEST(CircuitBreakerUnit, DisabledBreakerAlwaysAllows) {
  CircuitBreaker cb;  // default options: disabled
  const PlanConfig cfg{};
  CircuitBreaker::Clock::time_point t{};
  for (int i = 0; i < 10; ++i) cb.record_failure(5, cfg, t);
  EXPECT_TRUE(cb.allow(5, cfg, t));
  EXPECT_EQ(cb.stats().trips, 0u);
}

TEST(LoadShedUnit, WatermarkHysteresis) {
  DegradationPolicy p;
  p.enabled = true;
  p.shed_high_watermark = 0.75;
  p.shed_low_watermark = 0.25;
  LoadShedController shed(p, 8);  // high depth 6, low depth 2

  EXPECT_FALSE(shed.update_queue_depth(5));
  EXPECT_TRUE(shed.update_queue_depth(6));   // activates at the high mark
  EXPECT_TRUE(shed.update_queue_depth(3));   // hysteresis: still active
  EXPECT_FALSE(shed.update_queue_depth(2));  // releases at the low mark
  EXPECT_EQ(shed.activations(), 1u);
  EXPECT_EQ(shed.deactivations(), 1u);
}

TEST(LoadShedUnit, MissRateTriggerNeedsAFullWindow) {
  DegradationPolicy p;
  p.enabled = true;
  p.shed_miss_rate = 0.5;
  p.miss_window = 4;
  LoadShedController shed(p, 8);

  shed.record_outcome(true);
  shed.record_outcome(true);
  EXPECT_FALSE(shed.active());  // window not yet full
  shed.record_outcome(true);
  shed.record_outcome(true);
  EXPECT_TRUE(shed.active());
  EXPECT_DOUBLE_EQ(shed.miss_rate(), 1.0);

  for (int i = 0; i < 4; ++i) shed.record_outcome(false);
  EXPECT_FALSE(shed.active());  // rate back under threshold, queue empty
}

TEST(LatencyTrackerUnit, FallbackUntilMinSamplesThenPercentiles) {
  LatencyTracker lat(8);
  EXPECT_DOUBLE_EQ(lat.percentile(0.95, 123.0), 123.0);
  for (int i = 1; i <= 8; ++i) {
    lat.record(static_cast<value_t>(i) / 10.0);
  }
  EXPECT_DOUBLE_EQ(lat.percentile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(lat.percentile(1.0), 0.8);
  EXPECT_DOUBLE_EQ(lat.percentile(0.5), 0.5);
}

// ---------------------------------------------------------------------
// Service integration. Suite name is in the CI TSan filter.

TEST(ServiceHardening, DefaultsLeaveResponsesNeutral) {
  SolveService svc;
  const SolveResponse r = svc.solve(small_request(shared_fv(10, 0.6)));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.degraded);
  EXPECT_FALSE(r.hedged);
  EXPECT_EQ(r.solver_used, "block-async");
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.hedges, 0u);
  EXPECT_EQ(s.requeues, 0u);
  EXPECT_EQ(s.fallbacks, 0u);
}

TEST(ServiceHardening, RetriesExhaustAndSurfaceTheFailure) {
  ServiceOptions so;
  so.num_workers = 1;
  so.retry.max_attempts = 3;
  so.retry.backoff_base = milliseconds(1);
  so.retry.jitter = 0.0;
  SolveService svc(so);

  const SolveResponse r = svc.solve(small_request(shared_bad()));
  EXPECT_EQ(r.outcome, RequestOutcome::kFailed);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_FALSE(r.error.empty());

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.solved, 0u);
}

TEST(ServiceHardening, TransientPlanFailureRecoversViaRetry) {
  resilience::FaultScenario scenario;
  scenario.fail_plan_builds(0.0, 0.08);
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 1;
  so.plan_negative_ttl = milliseconds(1);
  so.retry.max_attempts = 8;
  so.retry.backoff_base = milliseconds(25);
  so.retry.backoff_multiplier = 1.5;
  so.retry.jitter = 0.0;
  so.chaos = &chaos;
  SolveService svc(so);

  chaos.start();
  const SolveResponse r = svc.solve(small_request(shared_fv(10, 0.6)));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GE(r.attempts, 2u);  // at least one injected failure, then success

  const ServiceStats s = svc.stats();
  EXPECT_GE(s.retries, 1u);
  EXPECT_GE(s.plan_cache.negative_expirations, 1u);
  EXPECT_GE(chaos.plan_failures_injected(), 1u);
}

TEST(ServiceHardening, BreakerTripsFastFailsThenRecovers) {
  resilience::FaultScenario scenario;
  scenario.fail_plan_builds(0.0, 0.05);
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 1;
  so.plan_negative_ttl = milliseconds(1);
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 2;
  so.breaker.open_duration = milliseconds(60);
  so.chaos = &chaos;
  SolveService svc(so);

  const auto a = shared_fv(10, 0.6);
  chaos.start();
  // Two consecutive plan failures trip the breaker...
  EXPECT_EQ(svc.solve(small_request(a)).outcome, RequestOutcome::kFailed);
  std::this_thread::sleep_for(milliseconds(3));  // age out the negative entry
  EXPECT_EQ(svc.solve(small_request(a)).outcome, RequestOutcome::kFailed);
  // ...and the next submission fails fast without touching a worker.
  const SolveResponse rejected = svc.solve(small_request(a));
  EXPECT_EQ(rejected.outcome, RequestOutcome::kRejectedCircuitOpen);

  // Past the fault window AND the open window: the half-open probe
  // rebuilds the plan successfully and closes the breaker.
  std::this_thread::sleep_for(milliseconds(150));
  const SolveResponse probe = svc.solve(small_request(a));
  ASSERT_TRUE(probe.ok()) << probe.error;

  const ServiceStats s = svc.stats();
  EXPECT_GE(s.breaker.trips, 1u);
  EXPECT_GE(s.breaker.recoveries, 1u);
  EXPECT_EQ(s.rejected_circuit_open, 1u);
  EXPECT_EQ(s.breaker.open, 0u);
}

TEST(ServiceHardening, FallbackChainServesDegradedResults) {
  resilience::FaultScenario scenario;
  scenario.fail_plan_builds(0.0, 30.0);  // the whole test
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 1;
  so.plan_negative_ttl = milliseconds(1);
  so.breaker.enabled = true;
  so.breaker.failure_threshold = 1;
  so.breaker.open_duration = milliseconds(10000);
  so.degradation.enabled = true;
  so.degradation.fallback_chain = {"jacobi"};
  so.chaos = &chaos;
  SolveService svc(so);

  const auto a = shared_fv(10, 0.6);
  chaos.start();
  // First request: the plan-path attempt fails, the fallback serves it.
  const SolveResponse r1 = svc.solve(small_request(a));
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_TRUE(r1.degraded);
  EXPECT_EQ(r1.solver_used, "jacobi");
  EXPECT_EQ(r1.attempts, 2u);

  // Second request: the breaker (threshold 1) is now open, so the
  // request degrades at admission — no plan-path attempt at all.
  const SolveResponse r2 = svc.solve(small_request(a));
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_TRUE(r2.degraded);
  EXPECT_EQ(r2.solver_used, "jacobi");
  EXPECT_EQ(r2.attempts, 1u);

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.fallbacks, 2u);
  EXPECT_GE(s.breaker.trips, 1u);
  EXPECT_EQ(s.rejected_circuit_open, 0u);
}

TEST(ServiceHardening, LoadShedRejectsBelowFloorAndEvictsForPriority) {
  ServiceOptions so;
  so.num_workers = 1;
  so.batching = false;
  so.queue_capacity = 4;
  so.degradation.enabled = true;
  so.degradation.shed_high_watermark = 0.5;   // activates at depth 2
  so.degradation.shed_low_watermark = 0.25;   // releases at depth 1
  so.degradation.shed_priority_floor = 1;
  SolveService svc(so);

  const auto a = shared_fv(10, 0.6);
  // Park the worker inside run_one by holding the plan mutex.
  const auto plan = svc.plan_cache().acquire(*a, PlanConfig{32, 2});
  std::vector<std::shared_ptr<Ticket>> held;
  {
    common::MutexLock plan_lock(plan->mu);
    auto blocked = small_request(a);
    blocked.priority = 5;
    held.push_back(svc.submit(std::move(blocked)));
    while (svc.stats().active < 1) std::this_thread::sleep_for(milliseconds(1));

    for (int i = 0; i < 2; ++i) {
      auto req = small_request(a);
      req.priority = 5;
      held.push_back(svc.submit(std::move(req)));
    }
    EXPECT_TRUE(svc.stats().shed_active);  // depth 2 >= high mark

    // Below the floor: rejected immediately.
    auto low = small_request(a);
    low.priority = 0;
    const SolveResponse shed = svc.submit(std::move(low))->wait();
    EXPECT_EQ(shed.outcome, RequestOutcome::kRejectedLoadShed);

    // Fill to capacity with priority-2 work, then submit priority-3:
    // the full queue evicts a lower-priority victim to admit it.
    auto mid1 = small_request(a);
    mid1.priority = 2;
    auto victim = svc.submit(std::move(mid1));
    auto mid2 = small_request(a);
    mid2.priority = 2;
    held.push_back(svc.submit(std::move(mid2)));
    ASSERT_EQ(svc.stats().queue_depth, 4u);

    auto high = small_request(a);
    high.priority = 3;
    held.push_back(svc.submit(std::move(high)));
    const SolveResponse& evicted = victim->wait();
    EXPECT_EQ(evicted.outcome, RequestOutcome::kRejectedLoadShed);

    // Queue full again and nothing strictly lower-priority to evict.
    auto equal = small_request(a);
    equal.priority = 2;
    const SolveResponse full = svc.submit(std::move(equal))->wait();
    EXPECT_EQ(full.outcome, RequestOutcome::kRejectedQueueFull);
  }

  for (const auto& t : held) {
    EXPECT_TRUE(t->wait().ok()) << t->wait().error;
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.rejected_load_shed, 2u);  // the floor reject + the eviction
  EXPECT_GE(s.shed_activations, 1u);
  EXPECT_GE(s.shed_deactivations, 1u);
  EXPECT_FALSE(s.shed_active);
}

TEST(ServiceHardening, HedgeRescuesAStalledWorker) {
  resilience::FaultScenario scenario;
  scenario.stall_workers(0.0, 0.02, /*stall_s=*/0.4);
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 2;
  so.retry.hedging = true;
  so.retry.hedge_min_delay = milliseconds(40);
  so.chaos = &chaos;
  SolveService svc(so);

  chaos.start();
  // The primary dispatch lands inside the stall window and sleeps
  // 400 ms; the hedge fires at ~40 ms (outside the window), runs on
  // the second worker, and wins.
  const SolveResponse r = svc.solve(small_request(shared_fv(10, 0.6)));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(r.attempts, 2u);

  svc.shutdown();  // join the stalled worker so its late finish lands
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.hedges, 1u);
  EXPECT_EQ(s.hedge_wins, 1u);
  EXPECT_EQ(s.late_completions, 1u);
  EXPECT_GE(s.chaos_stalls, 1u);
  EXPECT_EQ(s.solved, 1u);
}

TEST(ServiceHardening, DueHedgeWithAFullQueueDoesNotBlockSubmit) {
  // The only worker sleeps in a stalled dispatch and the one queue slot
  // is taken, so the primary's hedge falls due with nowhere to go. The
  // supervisor must wait for a free slot rather than spin on the
  // expired hedge timer while holding the service mutex — which would
  // block this submit until the primary's 1.5 s deadline.
  resilience::FaultScenario scenario;
  scenario.stall_workers(0.0, 0.05, /*stall_s=*/0.6);
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 1;
  so.queue_capacity = 1;
  so.retry.hedging = true;
  so.retry.hedge_min_delay = milliseconds(20);
  so.default_deadline = milliseconds(1500);
  so.chaos = &chaos;
  SolveService svc(so);

  const auto a = shared_fv(10, 0.6);
  chaos.start();
  auto primary = svc.submit(small_request(a));
  while (svc.stats().chaos_stalls == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  auto queued = svc.submit(small_request(a));
  std::this_thread::sleep_for(milliseconds(60));  // the hedge is now due

  const auto t0 = std::chrono::steady_clock::now();
  auto rejected = svc.submit(small_request(a));
  const auto blocked = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(blocked, milliseconds(500));
  EXPECT_EQ(rejected->wait().outcome, RequestOutcome::kRejectedQueueFull);

  // Once the stall ends the queue drains and both requests are served.
  EXPECT_EQ(primary->wait().outcome, RequestOutcome::kSolved);
  EXPECT_EQ(queued->wait().outcome, RequestOutcome::kSolved);
  svc.shutdown();
}

TEST(ServiceHardening, WatchdogDisarmsWhenASiblingAlreadyAnswered) {
  // The hedge answers at ~40 ms while the primary sleeps in a stalled
  // dispatch past its stuck deadline (300 ms). The watchdog must disarm
  // that attempt instead of re-arming its expired timer forever: a
  // supervisor spinning on it never releases the service mutex, so the
  // stalled worker could never report its late finish.
  resilience::FaultScenario scenario;
  scenario.stall_workers(0.0, 0.02, /*stall_s=*/0.5);
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 2;
  so.retry.hedging = true;
  so.retry.hedge_min_delay = milliseconds(40);
  so.supervision.max_requeues = 1;
  so.supervision.grace_factor = 1.5;
  so.chaos = &chaos;
  SolveService svc(so);

  chaos.start();
  auto req = small_request(shared_fv(10, 0.6));
  req.deadline = milliseconds(200);
  const SolveResponse r = svc.solve(std::move(req));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.hedged);

  // Keep the service up (shutdown disarms supervision) until the
  // stalled primary's late finish lands.
  ASSERT_TRUE(eventually([&] { return svc.stats().late_completions == 1; },
                         milliseconds(3000)));
  svc.shutdown();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.hedges, 1u);
  EXPECT_EQ(s.requeues, 0u);
  EXPECT_EQ(s.solved, 1u);
}

TEST(ServiceHardening, WatchdogRequeuesAStuckWorker) {
  resilience::FaultScenario scenario;
  scenario.stall_workers(0.0, 0.02, /*stall_s=*/0.5);
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 2;
  so.supervision.max_requeues = 1;
  so.supervision.grace_factor = 1.5;
  so.chaos = &chaos;
  SolveService svc(so);

  chaos.start();
  auto req = small_request(shared_fv(10, 0.6));
  req.deadline = milliseconds(60);  // stuck declared at 90 ms
  const SolveResponse r = svc.solve(std::move(req));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.attempts, 2u);

  svc.shutdown();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.requeues, 1u);
  EXPECT_EQ(s.late_completions, 1u);
  EXPECT_EQ(s.solved, 1u);
  EXPECT_GE(s.chaos_stalls, 1u);
}

TEST(ServiceHardening, ShutdownWhileRetryingCompletesParkedWithLastFailure) {
  ServiceOptions so;
  so.num_workers = 1;
  so.retry.max_attempts = 2;
  so.retry.backoff_base = milliseconds(500);
  so.retry.jitter = 0.0;
  SolveService svc(so);

  auto ticket = svc.submit(small_request(shared_bad()));
  ASSERT_TRUE(eventually([&] { return svc.stats().parked == 1; },
                         milliseconds(2000)));
  svc.shutdown(/*drain=*/true);  // does not wait out the 500 ms backoff

  const SolveResponse& r = ticket->wait();
  EXPECT_EQ(r.outcome, RequestOutcome::kFailed);
  EXPECT_NE(r.error.find("shut down before retry"), std::string::npos)
      << r.error;
  EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(ServiceHardening, ShutdownWhileHedgedLeavesTicketTerminal) {
  resilience::FaultScenario scenario;
  scenario.stall_workers(0.0, 0.02, /*stall_s=*/0.3);
  resilience::ServiceFaultInjector chaos(scenario);

  ServiceOptions so;
  so.num_workers = 2;
  so.retry.hedging = true;
  so.retry.hedge_min_delay = milliseconds(40);
  so.chaos = &chaos;
  SolveService svc(so);

  chaos.start();
  auto ticket = svc.submit(small_request(shared_fv(10, 0.6)));
  ASSERT_TRUE(eventually([&] { return svc.stats().hedges >= 1; },
                         milliseconds(2000)));
  svc.shutdown(/*drain=*/true);  // both attempts join; first verdict won

  ASSERT_TRUE(ticket->done());
  const SolveResponse& r = ticket->wait();
  EXPECT_EQ(r.outcome, RequestOutcome::kSolved);
  EXPECT_TRUE(r.result.ok());
}

TEST(ServiceHardening, TicketCancelReachesEveryAttempt) {
  // A user cancel through the request-level token must stop a parked
  // retry as well: the parked attempt is promoted, sees its parent
  // tripped, and completes kCancelled without running the solver.
  ServiceOptions so;
  so.num_workers = 1;
  so.retry.max_attempts = 3;
  so.retry.backoff_base = milliseconds(50);
  so.retry.jitter = 0.0;
  SolveService svc(so);

  auto ticket = svc.submit(small_request(shared_bad()));
  ASSERT_TRUE(eventually([&] { return svc.stats().parked == 1; },
                         milliseconds(2000)));
  ticket->cancel();
  const SolveResponse& r = ticket->wait();
  EXPECT_EQ(r.outcome, RequestOutcome::kCancelled);
}

}  // namespace
}  // namespace bars::service
