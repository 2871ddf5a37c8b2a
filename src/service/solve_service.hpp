#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/cancel.hpp"
#include "common/thread.hpp"
#include "core/registry.hpp"
#include "service/circuit_breaker.hpp"
#include "service/degradation.hpp"
#include "service/latency_tracker.hpp"
#include "service/plan_cache.hpp"
#include "service/retry_policy.hpp"
#include "stats/rng.hpp"
#include "telemetry/metrics.hpp"

namespace bars::resilience {
class ServiceFaultInjector;
}

/// \file solve_service.hpp
/// The solver-as-a-service layer: a long-lived SolveService that
/// accepts solve requests, amortizes per-matrix setup through a
/// PlanCache, runs requests on a worker pool with per-request
/// deadline/cancellation, applies admission control when saturated,
/// and fuses queued same-matrix block-async requests into one
/// multi-RHS batch (one kernel analysis, N right-hand sides — each
/// bit-identical to its standalone solve).
///
/// The hardening layer (all off by default, so a plain service behaves
/// exactly as before): bounded retries with exponential backoff +
/// jitter and optional hedged duplicates (RetryPolicy), per-plan
/// circuit breakers (CircuitBreakerOptions), load shedding and
/// fallback chains under overload (DegradationPolicy), stuck-worker
/// detection with bounded cancel-and-requeue (SupervisionPolicy), and
/// fault injection hooks (ServiceOptions::chaos,
/// resilience/service_faults.hpp).
///
/// docs/SERVICE.md is the contract document: plan-cache keying and
/// eviction, batching rules, admission control, the hardening
/// contracts, and a worked solve_server transcript.

namespace bars::service {

/// How a request left the service. kSolved means the solver itself ran
/// to a verdict — inspect SolveResponse::result.status for the
/// mathematical outcome; every other value means the service stopped
/// the request before or during the solve (result.status is then
/// SolverStatus::kAborted).
enum class RequestOutcome {
  kSolved = 0,
  kRejectedQueueFull,     ///< admission control: queue at capacity
  kRejectedShutdown,      ///< submitted to (or queued in) a stopping service
  kRejectedCircuitOpen,   ///< per-plan circuit breaker is open
  kRejectedLoadShed,      ///< shed under overload (priority below floor)
  kDeadlineExpired,       ///< per-request deadline passed (queued or mid-solve)
  kCancelled,             ///< Ticket::cancel() before a verdict
  kFailed,                ///< solver threw; see SolveResponse::error
};

[[nodiscard]] constexpr const char* to_string(RequestOutcome o) noexcept {
  switch (o) {
    case RequestOutcome::kSolved:
      return "solved";
    case RequestOutcome::kRejectedQueueFull:
      return "rejected-queue-full";
    case RequestOutcome::kRejectedShutdown:
      return "rejected-shutdown";
    case RequestOutcome::kRejectedCircuitOpen:
      return "rejected-circuit-open";
    case RequestOutcome::kRejectedLoadShed:
      return "rejected-load-shed";
    case RequestOutcome::kDeadlineExpired:
      return "deadline-expired";
    case RequestOutcome::kCancelled:
      return "cancelled";
    case RequestOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

/// One solve job. The matrix rides in a shared_ptr because the request
/// may outlive the submitting scope (queued, batched); the service
/// additionally keeps its own copy inside cached plans, so block-async
/// requests never touch `matrix` after plan acquisition.
struct SolveRequest {
  std::shared_ptr<const Csr> matrix;
  Vector b;
  /// Any name from core/registry.hpp (all 16 solvers are servable).
  /// "block-async" requests go through the plan cache and are
  /// batch-fusable; every other solver runs unplanned.
  std::string solver = "block-async";
  /// Per-request knobs, including per-request telemetry
  /// (options.solve.telemetry.observer receives this request's event
  /// stream). options.solve.cancel is service-owned — anything the
  /// caller puts there is ignored; use Ticket::cancel() instead.
  RegistrySolveOptions options{};
  /// Zero uses ServiceOptions::default_deadline; negative means "no
  /// deadline" even when a default exists.
  std::chrono::milliseconds deadline{0};
  /// Load-shed ordering: under overload, lower-priority work is shed
  /// first (DegradationPolicy). Priority never reorders the queue —
  /// it only decides who is rejected when the service must drop work.
  int priority = 0;
};

struct SolveResponse {
  RequestOutcome outcome = RequestOutcome::kFailed;
  /// The solver's result for kSolved; for kDeadlineExpired/kCancelled
  /// that fired mid-solve, the partial iterate with status kAborted;
  /// default-constructed (status kAborted) otherwise.
  SolveResult result;
  bool plan_cache_hit = false;
  bool batched = false;          ///< fused with other same-plan requests
  std::size_t batch_size = 1;    ///< requests in the fused batch (>= 1)
  value_t queue_seconds = 0.0;   ///< submit -> dispatch to a worker
  /// Plan-cache acquire after dispatch: the lookup, and on a miss the
  /// kernel build. Every request of a fused batch reports the batch's
  /// one acquire; 0 off the plan path.
  value_t plan_seconds = 0.0;
  value_t solve_seconds = 0.0;   ///< solver start -> completion
  std::string error;             ///< kFailed: what the solver threw
  /// The solver that produced `result` (may differ from the requested
  /// one when a fallback chain kicked in).
  std::string solver_used;
  bool degraded = false;         ///< served by a fallback solver
  std::uint32_t attempts = 1;    ///< attempts dispatched (retries/requeues)
  bool hedged = false;           ///< a hedged duplicate was launched

  /// Service accepted it AND the solver converged.
  [[nodiscard]] bool ok() const noexcept {
    return outcome == RequestOutcome::kSolved && result.ok();
  }
};

/// Handle to an in-flight request. Self-contained (own mutex/cv), so it
/// stays valid even after the service is destroyed.
class Ticket {
 public:
  Ticket() = default;
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;

  [[nodiscard]] bool done() const {
    common::MutexLock lock(mu_);
    return done_;
  }

  /// Block until the response is ready, then return it (stable
  /// reference, valid for the ticket's lifetime).
  [[nodiscard]] const SolveResponse& wait() {
    common::MutexLock lock(mu_);
    while (!done_) cv_.wait(lock);
    return response_;
  }

  /// Cooperative cancel: queued requests complete as kCancelled without
  /// running; a mid-solve request stops at its next iteration boundary.
  /// Reaches every attempt of the request (hedged duplicates, requeued
  /// victims). No-op once done.
  void cancel() noexcept {
    token_.request_cancel(common::CancelReason::kUser);
  }

 private:
  friend class SolveService;

  /// First completion wins: hedged duplicates and requeued attempts
  /// race to this, and late finishers are dropped. Returns whether
  /// this call was the winner.
  bool try_complete(SolveResponse&& r) {
    {
      common::MutexLock lock(mu_);
      if (done_) return false;
      response_ = std::move(r);
      done_ = true;
    }
    cv_.notify_all();
    return true;
  }

  mutable common::Mutex mu_;
  common::ConditionVariable cv_;
  bool done_ BARS_GUARDED_BY(mu_) = false;
  SolveResponse response_ BARS_GUARDED_BY(mu_);
  /// Request-level token: parent of every attempt-level token.
  common::CancelToken token_;
};

/// Stuck-worker supervision: a running attempt that is still going at
/// deadline x grace_factor is declared stuck (its worker is not
/// honoring cooperative cancellation — wedged I/O, a chaos-injected
/// stall), its token is tripped with CancelReason::kWatchdog, and a
/// fresh attempt is queued with a fresh deadline budget, up to
/// `max_requeues` times. Requests without a deadline are never
/// supervised (there is no budget to scale).
struct SupervisionPolicy {
  std::size_t max_requeues = 0;  ///< 0 = supervision off (the default)
  double grace_factor = 2.0;     ///< stuck at deadline x this
};

struct ServiceOptions {
  /// Distinct (matrix, config) plans kept resident (LRU beyond this).
  std::size_t plan_cache_capacity = 8;
  /// How long cached plan-construction *failures* stay authoritative
  /// (PlanCacheOptions::negative_ttl; <= 0 means forever).
  std::chrono::milliseconds plan_negative_ttl{30000};
  /// Concurrent solver threads (>= 1 enforced).
  index_t num_workers = 2;
  /// Admission control: submissions beyond this many queued requests
  /// are rejected with kRejectedQueueFull. Requests being solved do
  /// not count against the queue.
  std::size_t queue_capacity = 64;
  /// Fuse queued same-plan block-async requests into one batch.
  bool batching = true;
  /// Max requests fused per batch (>= 1; 1 disables fusion).
  std::size_t max_batch = 8;
  /// Attach a per-request resilience watchdog (checkpoint + supervisor,
  /// online detection off) to plan-path solves. Healthy solves are
  /// numerically unaffected; diverging or stalled ones get damped
  /// restarts / component reassignment (docs/RESILIENCE.md).
  bool watchdog = false;
  /// Deadline applied when a request does not set one (0 = none).
  std::chrono::milliseconds default_deadline{0};

  /// Hardening knobs — every default is "off"/neutral, so a service
  /// constructed without touching these behaves exactly as before.
  RetryPolicy retry{};
  CircuitBreakerOptions breaker{};
  DegradationPolicy degradation{};
  SupervisionPolicy supervision{};
  /// Seed for backoff jitter (the only randomness in the service).
  std::uint64_t jitter_seed = 0x5eed5eedULL;
  /// Fault injection: when non-null, the service consults this
  /// injector at dispatch (worker stalls) and plan build time
  /// (construction-failure bursts). Null = no chaos. The injector must
  /// outlive the service.
  resilience::ServiceFaultInjector* chaos = nullptr;

  /// Optional service-level metrics: request counters, queue/solve
  /// latency histograms, plan-cache and queue gauges. The registry is
  /// not thread-safe, so the service records strictly under its own
  /// lock; do not record into it from other threads while the service
  /// is alive.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Monotonic service counters (since construction), plus point-in-time
/// snapshots (queue_depth, active, shed_active, breaker/cache state)
/// taken when stats() is called.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t solved = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_circuit_open = 0;
  std::uint64_t rejected_load_shed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;           ///< fused batches executed
  std::uint64_t batched_requests = 0;  ///< requests that rode in a batch
  std::uint64_t retries = 0;           ///< re-attempts after kFailed
  std::uint64_t hedges = 0;            ///< hedged duplicates launched
  std::uint64_t hedge_wins = 0;        ///< completions won by a hedge
  std::uint64_t requeues = 0;          ///< stuck-worker cancel-and-requeues
  std::uint64_t fallbacks = 0;         ///< fallback-chain solver switches
  std::uint64_t late_completions = 0;  ///< attempts that lost the race
  std::uint64_t shed_activations = 0;
  std::uint64_t shed_deactivations = 0;
  std::uint64_t chaos_stalls = 0;      ///< injected worker stalls served
  std::size_t queue_depth = 0;         ///< snapshot: requests waiting
  std::size_t parked = 0;              ///< snapshot: attempts in backoff
  std::size_t active = 0;              ///< snapshot: requests being solved
  bool shed_active = false;            ///< snapshot: load shed engaged
  PlanCacheStats plan_cache{};
  CircuitBreakerStats breaker{};
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions opts = {});
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;
  /// Drains the queue (workers finish every accepted request), then
  /// joins the threads.
  ~SolveService();

  /// Asynchronous submission. Always returns a ticket; admission
  /// failures (queue full, shutting down, shed, open breaker, missing
  /// matrix) complete the ticket immediately with the rejection
  /// outcome.
  [[nodiscard]] std::shared_ptr<Ticket> submit(SolveRequest req);

  /// Synchronous convenience: submit and wait.
  [[nodiscard]] SolveResponse solve(SolveRequest req);

  /// Stop accepting work. drain=true (the destructor's mode) lets
  /// workers finish everything already queued; drain=false completes
  /// queued-but-unstarted requests as kRejectedShutdown. Attempts
  /// parked in retry backoff complete immediately with their last
  /// failure (retrying is best-effort; shutdown does not wait out
  /// backoff). Idempotent.
  void shutdown(bool drain = true);

  [[nodiscard]] ServiceStats stats() const;

  /// The plan cache, exposed for prewarming and inspection.
  [[nodiscard]] PlanCache& plan_cache() { return cache_; }
  [[nodiscard]] const PlanCache& plan_cache() const { return cache_; }

  /// The per-plan circuit breakers, exposed for inspection.
  [[nodiscard]] const CircuitBreaker& breaker() const { return breaker_; }

  [[nodiscard]] const ServiceOptions& options() const { return opts_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-request state shared by every attempt (hedges, retries,
  /// requeues) of one submission. Mutable accounting fields are
  /// guarded by the service mutex.
  struct RequestState {
    SolveRequest req;
    std::shared_ptr<Ticket> ticket;
    Clock::time_point submitted{};
    std::chrono::milliseconds budget{0};  ///< deadline budget (0 = none)
    std::uint64_t fingerprint = 0;  ///< 0 when not plan-path
    PlanConfig config{};
    bool plan_path = false;  ///< block-async: plan cache + batchable
    std::string solver;      ///< current solver (fallbacks rewrite it)
    std::uint32_t attempts_started = 0;
    std::uint32_t attempts_on_solver = 0;  ///< resets per fallback switch
    std::size_t fallback_index = 0;
    std::size_t requeues = 0;
    std::size_t hedges = 0;
    bool degraded = false;
  };

  /// One dispatchable attempt of a request.
  struct Attempt {
    std::shared_ptr<RequestState> rs;
    common::CancelToken token;  ///< parent = &rs->ticket->token_
    Clock::time_point enqueued{};
    Clock::time_point dispatched{};
    Clock::time_point deadline{Clock::time_point::max()};
    Clock::time_point stuck_at{Clock::time_point::max()};
    Clock::time_point ready_at{};  ///< parked retries: earliest dispatch
    bool running = false;
    bool is_hedge = false;         ///< launched as a hedged duplicate
    bool hedge_spawned = false;    ///< this attempt already has a hedge
    bool watchdogged = false;      ///< already declared stuck
    std::string park_error;        ///< last failure (parked retries)
  };
  using AttemptPtr = std::shared_ptr<Attempt>;

  void worker_loop();
  void supervisor_loop();
  void execute_batch(std::vector<AttemptPtr> batch);
  void run_one(Attempt& p, const std::shared_ptr<SolvePlan>& plan,
               bool cache_hit, value_t plan_seconds, std::size_t batch_size);
  void finish(Attempt& p, SolveResponse&& resp);
  /// Decide what to do with a failed attempt: park for retry, switch
  /// to a fallback solver, or surface the failure. Returns true when
  /// the failure was absorbed (attempt re-scheduled; do not complete).
  [[nodiscard]] bool absorb_failure(Attempt& p, const SolveResponse& resp);
  /// Build a fresh attempt for `rs` with a fresh deadline budget.
  [[nodiscard]] AttemptPtr make_attempt(const std::shared_ptr<RequestState>& rs,
                                        Clock::time_point now) const;
  /// Map a kAborted solver exit to the outcome the token reason implies.
  static RequestOutcome aborted_outcome(const common::CancelToken& token);
  void update_queue_gauges() BARS_REQUIRES(mu_);
  void count_outcome_locked(RequestOutcome outcome, value_t queue_seconds,
                            value_t solve_seconds, bool is_hedge)
      BARS_REQUIRES(mu_);

  ServiceOptions opts_;
  PlanCache cache_;
  CircuitBreaker breaker_;

  mutable common::Mutex mu_;
  common::ConditionVariable work_cv_;        ///< workers: queue/stop changed
  common::ConditionVariable supervisor_cv_;  ///< supervisor: timers changed
  std::deque<AttemptPtr> queue_ BARS_GUARDED_BY(mu_);
  std::vector<AttemptPtr> running_ BARS_GUARDED_BY(mu_);
  std::vector<AttemptPtr> parked_ BARS_GUARDED_BY(mu_);
  bool stopping_ BARS_GUARDED_BY(mu_) = false;
  bool supervisor_stop_ BARS_GUARDED_BY(mu_) = false;
  ServiceStats stats_ BARS_GUARDED_BY(mu_);
  LoadShedController shed_ BARS_GUARDED_BY(mu_);
  LatencyTracker latency_ BARS_GUARDED_BY(mu_);
  Rng jitter_rng_ BARS_GUARDED_BY(mu_);

  // Pre-registered metric handles (null when opts_.metrics is null).
  // Recorded only under mu_ — MetricsRegistry is not thread-safe.
  telemetry::Counter* m_requests_ = nullptr;
  telemetry::Counter* m_rejected_ = nullptr;
  telemetry::Counter* m_rejected_breaker_ = nullptr;
  telemetry::Counter* m_rejected_shed_ = nullptr;
  telemetry::Counter* m_deadline_ = nullptr;
  telemetry::Counter* m_cancelled_ = nullptr;
  telemetry::Counter* m_failed_ = nullptr;
  telemetry::Counter* m_solved_ = nullptr;
  telemetry::Counter* m_batches_ = nullptr;
  telemetry::Counter* m_retries_ = nullptr;
  telemetry::Counter* m_hedges_ = nullptr;
  telemetry::Counter* m_requeues_ = nullptr;
  telemetry::Counter* m_fallbacks_ = nullptr;
  telemetry::Counter* m_cache_hits_ = nullptr;
  telemetry::Counter* m_cache_misses_ = nullptr;
  telemetry::Gauge* m_queue_depth_ = nullptr;
  telemetry::Gauge* m_active_ = nullptr;
  telemetry::Gauge* m_cache_size_ = nullptr;
  telemetry::Gauge* m_shed_active_ = nullptr;
  telemetry::Histogram* m_queue_seconds_ = nullptr;
  telemetry::Histogram* m_plan_seconds_ = nullptr;
  telemetry::Histogram* m_solve_seconds_ = nullptr;

  std::vector<common::Thread> workers_;
  common::Thread supervisor_;
};

}  // namespace bars::service
