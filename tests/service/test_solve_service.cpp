#include "service/solve_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "matrices/generators.hpp"
#include "sparse/partition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observer.hpp"

namespace bars::service {
namespace {

using std::chrono::milliseconds;

[[nodiscard]] std::shared_ptr<const Csr> shared_fv(index_t n, value_t rho) {
  return std::make_shared<const Csr>(fv_like(n, rho));
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

/// Spin until the (single) worker has dequeued a request and is inside
/// run_one — used with a test-held plan mutex to park the worker at a
/// known point.
void wait_until_active(const SolveService& svc, std::size_t n) {
  while (svc.stats().active < n) {
    std::this_thread::sleep_for(milliseconds(1));
  }
}

TEST(SolveService, ServesBlockAsyncThroughPlanCache) {
  ServiceOptions so;
  so.num_workers = 1;
  SolveService svc(so);

  const auto a = shared_fv(10, 0.6);
  const SolveResponse r1 = svc.solve(small_request(a));
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_FALSE(r1.plan_cache_hit);
  EXPECT_GT(r1.result.iterations, 0);

  const SolveResponse r2 = svc.solve(small_request(a));
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_TRUE(r2.plan_cache_hit);

  // Same request, same plan: the served solves are bit-identical.
  ASSERT_EQ(r1.result.x.size(), r2.result.x.size());
  for (std::size_t i = 0; i < r1.result.x.size(); ++i) {
    EXPECT_EQ(r1.result.x[i], r2.result.x[i]);
  }

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.solved, 2u);
  EXPECT_EQ(s.plan_cache.hits, 1u);
  EXPECT_EQ(s.plan_cache.misses, 1u);
}

class ServiceAllSolvers : public ::testing::TestWithParam<std::string> {};

TEST_P(ServiceAllSolvers, EveryRegistrySolverIsServable) {
  SolveService svc;
  // 15 = 2^4 - 1 so the multigrid entries can build a hierarchy.
  auto req = small_request(shared_fv(15, 0.8));
  req.solver = GetParam();
  req.options.solve.tol = 1e-9;
  req.options.num_threads = 2;
  const SolveResponse r = svc.solve(std::move(req));
  EXPECT_EQ(r.outcome, RequestOutcome::kSolved) << GetParam() << ": " << r.error;
  EXPECT_TRUE(r.result.ok()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, ServiceAllSolvers, ::testing::ValuesIn(solver_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(SolveService, NullMatrixFailsImmediately) {
  SolveService svc;
  SolveRequest req;
  const SolveResponse r = svc.solve(std::move(req));
  EXPECT_EQ(r.outcome, RequestOutcome::kFailed);
  EXPECT_EQ(r.result.status, SolverStatus::kAborted);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(SolveService, UnknownSolverFails) {
  SolveService svc;
  auto req = small_request(shared_fv(6, 0.5));
  req.solver = "definitely-not-a-solver";
  const SolveResponse r = svc.solve(std::move(req));
  EXPECT_EQ(r.outcome, RequestOutcome::kFailed);
  EXPECT_FALSE(r.error.empty());
}

TEST(SolveService, KernelConstructionFailureSurfacesAsFailed) {
  // Zero diagonal: the cached plan carries the construction error.
  auto bad = std::make_shared<const Csr>(2, 2, std::vector<index_t>{0, 1, 2},
                                         std::vector<index_t>{1, 0},
                                         std::vector<value_t>{1.0, 1.0});
  SolveService svc;
  auto req = small_request(bad);
  const SolveResponse r = svc.solve(std::move(req));
  EXPECT_EQ(r.outcome, RequestOutcome::kFailed);
  EXPECT_FALSE(r.error.empty());
}

TEST(SolveService, QueueFullRejection) {
  ServiceOptions so;
  so.num_workers = 1;
  so.queue_capacity = 2;
  so.batching = false;
  SolveService svc(so);

  const auto a = shared_fv(8, 0.5);
  // Park the single worker: pre-build the plan, hold its mutex, and let
  // the worker block inside run_one.
  const auto plan = svc.plan_cache().acquire(*a, PlanConfig{32, 2});
  auto blocker_ticket = std::shared_ptr<Ticket>();
  std::vector<std::shared_ptr<Ticket>> accepted;
  std::shared_ptr<Ticket> overflow;
  {
    common::MutexLock hold(plan->mu);
    blocker_ticket = svc.submit(small_request(a));
    wait_until_active(svc, 1);

    accepted.push_back(svc.submit(small_request(a)));
    accepted.push_back(svc.submit(small_request(a)));
    EXPECT_EQ(svc.stats().queue_depth, 2u);

    overflow = svc.submit(small_request(a));
    ASSERT_TRUE(overflow->done());  // rejected synchronously
    const SolveResponse& r = overflow->wait();
    EXPECT_EQ(r.outcome, RequestOutcome::kRejectedQueueFull);
    EXPECT_EQ(r.result.status, SolverStatus::kAborted);
  }

  EXPECT_TRUE(blocker_ticket->wait().ok());
  for (const auto& t : accepted) EXPECT_TRUE(t->wait().ok());
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.rejected_queue_full, 1u);
  EXPECT_EQ(s.solved, 3u);
}

TEST(SolveService, DeadlineExpiresWhileQueued) {
  ServiceOptions so;
  so.num_workers = 1;
  SolveService svc(so);

  const auto a = shared_fv(8, 0.5);
  const auto plan = svc.plan_cache().acquire(*a, PlanConfig{32, 2});
  std::shared_ptr<Ticket> blocker;
  std::shared_ptr<Ticket> doomed;
  {
    common::MutexLock hold(plan->mu);
    blocker = svc.submit(small_request(a));
    wait_until_active(svc, 1);

    auto req = small_request(a);
    req.deadline = milliseconds(30);
    doomed = svc.submit(std::move(req));
    // The reaper completes it while the worker is still parked.
    const SolveResponse& r = doomed->wait();
    EXPECT_EQ(r.outcome, RequestOutcome::kDeadlineExpired);
    EXPECT_EQ(r.result.status, SolverStatus::kAborted);
    EXPECT_EQ(r.solve_seconds, 0.0);  // never dispatched
  }
  EXPECT_TRUE(blocker->wait().ok());
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(SolveService, DeadlineExpiresMidSolve) {
  ServiceOptions so;
  so.num_workers = 1;
  SolveService svc(so);

  const auto a = shared_fv(8, 0.5);
  const auto plan = svc.plan_cache().acquire(*a, PlanConfig{32, 2});
  std::shared_ptr<Ticket> t;
  {
    common::MutexLock hold(plan->mu);
    auto req = small_request(a);
    req.deadline = milliseconds(50);
    t = svc.submit(std::move(req));
    wait_until_active(svc, 1);
    // Keep the worker parked until the reaper has tripped the token, so
    // the solver (or its dispatch gate) observes the expiry.
    std::this_thread::sleep_for(milliseconds(150));
  }
  const SolveResponse& r = t->wait();
  EXPECT_EQ(r.outcome, RequestOutcome::kDeadlineExpired);
  EXPECT_EQ(r.result.status, SolverStatus::kAborted);
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
}

TEST(SolveService, NegativeDeadlineOverridesDefault) {
  ServiceOptions so;
  so.num_workers = 1;
  so.default_deadline = milliseconds(1);
  SolveService svc(so);
  auto req = small_request(shared_fv(8, 0.5));
  req.deadline = milliseconds(-1);  // explicit "no deadline"
  const SolveResponse r = svc.solve(std::move(req));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(SolveService, TicketCancelStopsQueuedAndRunningRequests) {
  ServiceOptions so;
  so.num_workers = 1;
  SolveService svc(so);

  const auto a = shared_fv(8, 0.5);
  const auto plan = svc.plan_cache().acquire(*a, PlanConfig{32, 2});
  std::shared_ptr<Ticket> running;
  std::shared_ptr<Ticket> queued;
  {
    common::MutexLock hold(plan->mu);
    running = svc.submit(small_request(a));
    wait_until_active(svc, 1);
    queued = svc.submit(small_request(a));
    // Cancel both: one mid-flight, one still queued.
    running->cancel();
    queued->cancel();
  }
  EXPECT_EQ(running->wait().outcome, RequestOutcome::kCancelled);
  EXPECT_EQ(queued->wait().outcome, RequestOutcome::kCancelled);
  EXPECT_EQ(svc.stats().cancelled, 2u);
}

TEST(SolveService, ShutdownWithoutDrainRejectsQueued) {
  ServiceOptions so;
  so.num_workers = 1;
  SolveService svc(so);

  const auto a = shared_fv(8, 0.5);
  const auto plan = svc.plan_cache().acquire(*a, PlanConfig{32, 2});
  std::shared_ptr<Ticket> running;
  std::shared_ptr<Ticket> queued;
  std::thread stopper;
  {
    common::MutexLock hold(plan->mu);
    running = svc.submit(small_request(a));
    wait_until_active(svc, 1);
    queued = svc.submit(small_request(a));
    stopper = std::thread([&] { svc.shutdown(/*drain=*/false); });
    // The queued request is flushed as rejected even while the worker
    // is still busy with the running one.
    EXPECT_EQ(queued->wait().outcome, RequestOutcome::kRejectedShutdown);
  }
  stopper.join();
  EXPECT_TRUE(running->wait().ok());  // in-flight work still completes

  // Submissions after shutdown are rejected too.
  const SolveResponse late = svc.solve(small_request(a));
  EXPECT_EQ(late.outcome, RequestOutcome::kRejectedShutdown);
  EXPECT_EQ(svc.stats().rejected_shutdown, 2u);
}

TEST(SolveService, RecordsServiceMetrics) {
  telemetry::MetricsRegistry metrics;
  ServiceOptions so;
  so.num_workers = 1;
  so.metrics = &metrics;
  SolveService svc(so);

  const auto a = shared_fv(8, 0.5);
  ASSERT_TRUE(svc.solve(small_request(a)).ok());
  ASSERT_TRUE(svc.solve(small_request(a)).ok());
  svc.shutdown();  // joins workers: safe to read the registry now

  EXPECT_EQ(metrics.counter("service_requests_total").value(), 2u);
  EXPECT_EQ(metrics.counter("service_solved").value(), 2u);
  EXPECT_EQ(metrics.counter("service_plan_cache_hits").value(), 1u);
  EXPECT_EQ(metrics.counter("service_plan_cache_misses").value(), 1u);
  EXPECT_EQ(metrics.histogram("service_solve_seconds", {}).total(), 2u);
  EXPECT_EQ(metrics.gauge("service_plan_cache_size").value(), 1.0);
}

/// An fv_like grid whose kernel, built through build_kernel with the
/// service's plan configuration, takes at least 20 ms on this host
/// (best of three builds), so a plan build cannot hide in a timing
/// figure. The grid side grows with the square root of the missing
/// time (build cost is linear in the rows), by at least 5/4 a step, up
/// to 1024. `build_seconds` gets the time of the returned grid's build.
std::shared_ptr<const Csr> slow_build_matrix(const SolveRequest& req,
                                             double& build_seconds) {
  for (index_t n = 256;;) {
    auto a = shared_fv(n, 0.5);
    const Vector seed_rhs(static_cast<std::size_t>(a->rows()), 0.0);
    build_seconds = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto kernel = backend::build_kernel(
          req.options.backend, *a, seed_rhs,
          RowPartition::uniform(a->rows(), req.options.block_size),
          {req.options.local_iters});
      build_seconds = std::min(
          build_seconds, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
    if (build_seconds >= 0.020 || n >= 1024) return a;
    const double grow = std::sqrt(0.025 / std::max(build_seconds, 1e-6));
    n = std::min<index_t>(
        1024, std::max<index_t>(n + n / 4, static_cast<index_t>(n * grow)));
  }
}

TEST(SolveService, PlanBuildIsPlanTimeNotQueueTime) {
  telemetry::MetricsRegistry metrics;
  ServiceOptions so;
  so.num_workers = 1;
  so.metrics = &metrics;
  SolveService svc(so);

  // One global iteration meets tol 0.9 on any fv_like(n, 0.5): the
  // request's cost is the plan build, not the solve.
  SolveRequest req = small_request(shared_fv(8, 0.5));
  req.options.solve.tol = 0.9;
  double build = 0.0;
  req.matrix = slow_build_matrix(req, build);
  ASSERT_GE(build, 0.020) << "no fv_like grid up to 1024x1024 builds slowly";
  req.b.assign(static_cast<std::size_t>(req.matrix->rows()), 1.0);

  // The cold request pays the build inside plan_seconds; timing jitter
  // gets a factor of two either way.
  const SolveResponse cold = svc.solve(req);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_GE(cold.plan_seconds, build / 2);
  EXPECT_LT(cold.queue_seconds, build / 2);

  const SolveResponse hot = svc.solve(req);
  ASSERT_TRUE(hot.ok()) << hot.error;
  EXPECT_TRUE(hot.plan_cache_hit);
  EXPECT_LT(hot.plan_seconds, build / 2);
  svc.shutdown();  // joins workers: safe to read the registry now
  EXPECT_EQ(metrics.histogram("service_plan_seconds", {}).total(), 2u);
}

TEST(SolveService, PerRequestObserverSeesTheSolve) {
  SolveService svc;
  auto req = small_request(shared_fv(8, 0.5));
  telemetry::RecordingObserver obs;
  req.options.solve.telemetry.observer = &obs;
  const SolveResponse r = svc.solve(std::move(req));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(obs.starts.size(), 1u);
  EXPECT_EQ(obs.finishes.size(), 1u);
  EXPECT_GT(obs.iterations.size(), 0u);
}

}  // namespace
}  // namespace bars::service
