#include "service/solve_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/block_async.hpp"
#include "resilience/recovery.hpp"
#include "resilience/service_faults.hpp"
#include "service/fingerprint.hpp"

namespace bars::service {

namespace {

[[nodiscard]] value_t seconds_between(std::chrono::steady_clock::time_point a,
                                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<value_t>(b - a).count();
}

[[nodiscard]] std::chrono::steady_clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

SolveService::SolveService(ServiceOptions opts)
    : opts_(opts),
      cache_(PlanCacheOptions{
          opts.plan_cache_capacity == 0 ? 1 : opts.plan_cache_capacity,
          opts.plan_negative_ttl}),
      breaker_(opts.breaker),
      shed_(opts.degradation, opts.queue_capacity),
      jitter_rng_(opts.jitter_seed) {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.supervision.grace_factor < 1.0) opts_.supervision.grace_factor = 1.0;
  if (opts_.metrics != nullptr) {
    telemetry::MetricsRegistry& m = *opts_.metrics;
    m_requests_ = &m.counter("service_requests_total");
    m_rejected_ = &m.counter("service_rejected_queue_full");
    m_rejected_breaker_ = &m.counter("service_rejected_circuit_open");
    m_rejected_shed_ = &m.counter("service_rejected_load_shed");
    m_deadline_ = &m.counter("service_deadline_expired");
    m_cancelled_ = &m.counter("service_cancelled");
    m_failed_ = &m.counter("service_failed");
    m_solved_ = &m.counter("service_solved");
    m_batches_ = &m.counter("service_batches");
    m_retries_ = &m.counter("service_retries");
    m_hedges_ = &m.counter("service_hedges");
    m_requeues_ = &m.counter("service_requeues");
    m_fallbacks_ = &m.counter("service_fallbacks");
    m_cache_hits_ = &m.counter("service_plan_cache_hits");
    m_cache_misses_ = &m.counter("service_plan_cache_misses");
    m_queue_depth_ = &m.gauge("service_queue_depth");
    m_active_ = &m.gauge("service_active_solves");
    m_cache_size_ = &m.gauge("service_plan_cache_size");
    m_shed_active_ = &m.gauge("service_shed_active");
    static constexpr value_t kLatencyBuckets[] = {1e-4, 1e-3, 1e-2,
                                                  1e-1, 1.0,  10.0};
    m_queue_seconds_ = &m.histogram("service_queue_seconds", kLatencyBuckets);
    m_plan_seconds_ = &m.histogram("service_plan_seconds", kLatencyBuckets);
    m_solve_seconds_ = &m.histogram("service_solve_seconds", kLatencyBuckets);
  }

  const index_t n = std::max<index_t>(1, opts_.num_workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  supervisor_ = common::Thread([this] { supervisor_loop(); });
}

SolveService::~SolveService() { shutdown(/*drain=*/true); }

RequestOutcome SolveService::aborted_outcome(const common::CancelToken& token) {
  return token.reason() == common::CancelReason::kDeadline
             ? RequestOutcome::kDeadlineExpired
             : RequestOutcome::kCancelled;
}

SolveService::AttemptPtr SolveService::make_attempt(
    const std::shared_ptr<RequestState>& rs, Clock::time_point now) const {
  auto p = std::make_shared<Attempt>();
  p->rs = rs;
  p->token.set_parent(&rs->ticket->token_);
  p->enqueued = now;
  ++rs->attempts_started;
  ++rs->attempts_on_solver;
  if (rs->budget.count() > 0) {
    // Every attempt gets a fresh deadline budget from its enqueue time:
    // a retry or a watchdog requeue is not condemned by the time its
    // predecessor burned.
    p->deadline = now + rs->budget;
    if (opts_.supervision.max_requeues > 0) {
      p->stuck_at = now + std::chrono::duration_cast<Clock::duration>(
                              rs->budget * opts_.supervision.grace_factor);
    }
  }
  return p;
}

void SolveService::update_queue_gauges() {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->set(static_cast<value_t>(queue_.size()));
  }
  if (m_active_ != nullptr) {
    m_active_->set(static_cast<value_t>(running_.size()));
  }
  if (m_shed_active_ != nullptr) {
    m_shed_active_->set(shed_.active() ? 1.0 : 0.0);
  }
}

std::shared_ptr<Ticket> SolveService::submit(SolveRequest req) {
  auto ticket = std::make_shared<Ticket>();

  const auto reject = [&](RequestOutcome outcome, std::string error) {
    SolveResponse r;
    r.outcome = outcome;
    r.result.status = SolverStatus::kAborted;
    r.error = std::move(error);
    (void)ticket->try_complete(std::move(r));
    return ticket;
  };

  if (!req.matrix) {
    common::MutexLock lock(mu_);
    ++stats_.submitted;
    ++stats_.failed;
    if (m_requests_ != nullptr) m_requests_->inc();
    if (m_failed_ != nullptr) m_failed_->inc();
    return reject(RequestOutcome::kFailed, "SolveRequest::matrix is null");
  }

  auto rs = std::make_shared<RequestState>();
  rs->plan_path = req.solver == "block-async";
  if (rs->plan_path) {
    if (req.options.block_size <= 0 || req.options.local_iters <= 0) {
      common::MutexLock lock(mu_);
      ++stats_.submitted;
      ++stats_.failed;
      if (m_requests_ != nullptr) m_requests_->inc();
      if (m_failed_ != nullptr) m_failed_->inc();
      return reject(RequestOutcome::kFailed,
                    "block_size and local_iters must be > 0");
    }
    // Fingerprint outside the service lock: the request's one O(nnz)
    // pass, which buys the batching key, the breaker key, and the plan
    // lookup (execute_batch hands it to PlanCache::acquire).
    rs->fingerprint = matrix_fingerprint(*req.matrix);
    rs->config = PlanConfig{req.options.block_size, req.options.local_iters,
                            req.options.backend};
  }
  rs->req = std::move(req);
  rs->ticket = ticket;
  rs->solver = rs->req.solver;
  rs->submitted = Clock::now();
  const auto deadline = rs->req.deadline.count() != 0 ? rs->req.deadline
                                                      : opts_.default_deadline;
  if (deadline.count() > 0) rs->budget = deadline;

  AttemptPtr evicted;
  {
    common::MutexLock lock(mu_);
    ++stats_.submitted;
    if (m_requests_ != nullptr) m_requests_->inc();
    if (stopping_) {
      ++stats_.rejected_shutdown;
      return reject(RequestOutcome::kRejectedShutdown,
                    "service is shutting down");
    }

    // Load shed: under overload, the cheapest-to-lose work is rejected
    // before it ever costs a queue slot.
    if (opts_.degradation.enabled && shed_.active() &&
        rs->req.priority < opts_.degradation.shed_priority_floor) {
      ++stats_.rejected_load_shed;
      if (m_rejected_shed_ != nullptr) m_rejected_shed_->inc();
      return reject(RequestOutcome::kRejectedLoadShed,
                    "shed under overload (priority below floor)");
    }

    // Circuit breaker: a plan key that keeps failing fails fast here
    // instead of burning a worker — or degrades onto the fallback
    // chain when one is configured.
    bool admitted_by_breaker = false;
    if (rs->plan_path && opts_.breaker.enabled) {
      if (breaker_.allow(rs->fingerprint, rs->config, rs->submitted)) {
        admitted_by_breaker = true;
      } else if (opts_.degradation.has_fallbacks()) {
        ++stats_.fallbacks;
        if (m_fallbacks_ != nullptr) m_fallbacks_->inc();
        rs->solver = opts_.degradation.fallback_chain.front();
        rs->fallback_index = 1;
        rs->degraded = true;
        rs->plan_path = false;
      } else {
        ++stats_.rejected_circuit_open;
        if (m_rejected_breaker_ != nullptr) m_rejected_breaker_->inc();
        return reject(RequestOutcome::kRejectedCircuitOpen,
                      "circuit breaker open for this plan");
      }
    }

    if (queue_.size() >= opts_.queue_capacity) {
      // Full queue: degradation may evict a strictly lower-priority
      // queued request to admit this one; otherwise plain rejection.
      auto victim = queue_.end();
      if (opts_.degradation.enabled) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          // Only first attempts are evictable: a queued hedge or
          // requeue has a running sibling that owns the ticket.
          if ((*it)->is_hedge || (*it)->rs->attempts_started > 1) continue;
          if ((*it)->rs->req.priority >= rs->req.priority) continue;
          if (victim == queue_.end() ||
              (*it)->rs->req.priority < (*victim)->rs->req.priority) {
            victim = it;
          }
        }
      }
      if (victim == queue_.end()) {
        if (admitted_by_breaker) {
          breaker_.release(rs->fingerprint, rs->config);
        }
        ++stats_.rejected_queue_full;
        if (m_rejected_ != nullptr) m_rejected_->inc();
        return reject(RequestOutcome::kRejectedQueueFull,
                      "request queue at capacity");
      }
      evicted = *victim;
      queue_.erase(victim);
      ++stats_.rejected_load_shed;
      if (m_rejected_shed_ != nullptr) m_rejected_shed_->inc();
      if (evicted->rs->plan_path && opts_.breaker.enabled) {
        breaker_.release(evicted->rs->fingerprint, evicted->rs->config);
      }
    }

    queue_.push_back(make_attempt(rs, rs->submitted));
    shed_.update_queue_depth(queue_.size());
    update_queue_gauges();
  }
  if (evicted) {
    SolveResponse r;
    r.outcome = RequestOutcome::kRejectedLoadShed;
    r.result.status = SolverStatus::kAborted;
    r.error = "evicted from queue by higher-priority work";
    r.queue_seconds = seconds_between(evicted->enqueued, Clock::now());
    (void)evicted->rs->ticket->try_complete(std::move(r));
  }
  work_cv_.notify_one();
  supervisor_cv_.notify_one();
  return ticket;
}

SolveResponse SolveService::solve(SolveRequest req) {
  return submit(std::move(req))->wait();
}

void SolveService::worker_loop() {
  for (;;) {
    std::vector<AttemptPtr> batch;
    {
      common::MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) work_cv_.wait(lock);
      if (queue_.empty()) return;  // stopping and drained
      batch.push_back(queue_.front());
      queue_.pop_front();
      const Attempt& first = *batch.front();
      if (opts_.batching && first.rs->plan_path && opts_.max_batch > 1) {
        // Fuse queued requests that would use the very same plan. Order
        // within the queue is preserved for everyone else.
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < opts_.max_batch;) {
          const Attempt& cand = **it;
          if (cand.rs->plan_path &&
              cand.rs->fingerprint == first.rs->fingerprint &&
              cand.rs->config == first.rs->config) {
            batch.push_back(*it);
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      const Clock::time_point dispatch_time = Clock::now();
      for (const auto& p : batch) {
        p->running = true;
        // Under the lock: the supervisor reads `dispatched` (for hedge
        // timers) from running_ entries.
        p->dispatched = dispatch_time;
        running_.push_back(p);
      }
      shed_.update_queue_depth(queue_.size());
      update_queue_gauges();
      if (batch.size() > 1) {
        ++stats_.batches;
        stats_.batched_requests += batch.size();
        if (m_batches_ != nullptr) m_batches_->inc();
      }
    }
    // Dispatch arms hedge and watchdog timers (deadlines were already
    // armed while queued), and the supervisor may be in an untimed wait.
    if (opts_.retry.hedging || opts_.supervision.max_requeues > 0) {
      supervisor_cv_.notify_one();
    }
    execute_batch(std::move(batch));
  }
}

void SolveService::execute_batch(std::vector<AttemptPtr> batch) {
  // Chaos: a stalled worker sits on its dispatch without holding any
  // plan lock — exactly the failure a hedge or a watchdog requeue is
  // supposed to rescue. The stall duration is scenario-bounded.
  if (opts_.chaos != nullptr) {
    const double stall_s = opts_.chaos->worker_stall_seconds();
    if (stall_s > 0.0) {
      opts_.chaos->count_stall();
      {
        common::MutexLock lock(mu_);
        ++stats_.chaos_stalls;
      }
      std::this_thread::sleep_for(from_seconds(stall_s));  // bars-lint: allow(unbounded-retry) scenario-bounded injected stall, not a retry wait
    }
  }

  std::shared_ptr<SolvePlan> plan;
  bool cache_hit = false;
  value_t plan_seconds = 0.0;
  const Attempt& first = *batch.front();
  if (first.rs->plan_path) {
    const char* inject = nullptr;
    if (opts_.chaos != nullptr && opts_.chaos->plan_failure_active()) {
      inject = "injected plan-construction failure (chaos)";
    }
    const Clock::time_point acquire_start = Clock::now();
    plan = cache_.acquire(first.rs->fingerprint, *first.rs->req.matrix,
                          first.rs->config, &cache_hit, inject);
    plan_seconds = seconds_between(acquire_start, Clock::now());
    if (inject != nullptr && !cache_hit) opts_.chaos->count_plan_failure();
    common::MutexLock lock(mu_);
    if (m_plan_seconds_ != nullptr) m_plan_seconds_->record(plan_seconds);
    if (cache_hit) {
      if (m_cache_hits_ != nullptr) m_cache_hits_->inc();
    } else if (m_cache_misses_ != nullptr) {
      m_cache_misses_->inc();
    }
    if (m_cache_size_ != nullptr) {
      m_cache_size_->set(static_cast<value_t>(cache_.stats().size));
    }
  }
  for (const auto& p : batch) {
    run_one(*p, plan, cache_hit, plan_seconds, batch.size());
  }
}

void SolveService::run_one(Attempt& p, const std::shared_ptr<SolvePlan>& plan,
                           bool cache_hit, value_t plan_seconds,
                           std::size_t batch_size) {
  SolveResponse resp;
  resp.plan_cache_hit = p.rs->plan_path && cache_hit;
  resp.batch_size = batch_size;
  resp.batched = batch_size > 1;
  // This worker set `dispatched` before execute_batch; queueing ends there.
  resp.queue_seconds = seconds_between(p.enqueued, p.dispatched);
  resp.plan_seconds = plan_seconds;
  const Clock::time_point start = Clock::now();

  if (p.token.requested()) {
    // Cancelled or expired while queued: never dispatch the solver.
    resp.outcome = aborted_outcome(p.token);
    resp.result.status = SolverStatus::kAborted;
    if (p.rs->plan_path) {
      breaker_.release(p.rs->fingerprint, p.rs->config);
    }
    finish(p, std::move(resp));
    return;
  }

  RegistrySolveOptions o = p.rs->req.options;
  o.solve.cancel = &p.token;
  try {
    if (p.rs->plan_path && plan != nullptr) {
      if (plan->kernel == nullptr) {
        throw std::invalid_argument(plan->kernel_error);
      }
      // Mirror the registry's block-async entry exactly (same options
      // from the same RegistrySolveOptions fields), so a served solve
      // is bit-identical to find_solver("block-async") — the kernel is
      // just prebuilt.
      BlockAsyncOptions ao;
      ao.solve = o.solve;
      ao.block_size = o.block_size;
      ao.local_iters = o.local_iters;
      ao.backend = o.backend;
      ao.seed = o.seed;
      if (opts_.watchdog) {
        resilience::Policy policy;
        policy.online_detection = false;
        ao.resilience = policy;
      }
      // One request at a time per plan: set_rhs repoints shared kernel
      // state, so the executor run is part of the critical section.
      common::MutexLock plan_lock(plan->mu);
      resp.result =
          block_async_solve_with_kernel(plan->matrix, p.rs->req.b,
                                        *plan->kernel, ao)
              .solve;
      // Re-point the kernel at plan-owned storage so it never dangles
      // into a completed request's RHS while the plan sits in cache.
      plan->kernel->set_rhs(plan->seed_rhs);
    } else {
      resp.result = find_solver(p.rs->solver)(*p.rs->req.matrix, p.rs->req.b, o);
    }
    resp.outcome = resp.result.status == SolverStatus::kAborted
                       ? aborted_outcome(p.token)
                       : RequestOutcome::kSolved;
  } catch (const std::exception& e) {
    resp.outcome = RequestOutcome::kFailed;
    resp.result.status = SolverStatus::kAborted;
    resp.error = e.what();
  }
  resp.solve_seconds = seconds_between(start, Clock::now());

  // The breaker hears every plan-path verdict; attempts that ended
  // without one (cancelled mid-flight) release a possible probe slot.
  if (p.rs->plan_path) {
    switch (resp.outcome) {
      case RequestOutcome::kSolved:
        breaker_.record_success(p.rs->fingerprint, p.rs->config);
        break;
      case RequestOutcome::kFailed:
        breaker_.record_failure(p.rs->fingerprint, p.rs->config, Clock::now());
        break;
      default:
        breaker_.release(p.rs->fingerprint, p.rs->config);
        break;
    }
  }

  if (resp.outcome == RequestOutcome::kFailed && absorb_failure(p, resp)) {
    return;  // re-scheduled (parked for retry, or switched to a fallback)
  }
  finish(p, std::move(resp));
}

bool SolveService::absorb_failure(Attempt& p, const SolveResponse& resp) {
  common::MutexLock lock(mu_);
  if (stopping_ || p.token.requested() || p.rs->ticket->done()) return false;

  // A live sibling (hedge partner, watchdog replacement) still owns a
  // shot at this request: this failure retires silently instead of
  // completing the ticket or mutating shared request state under the
  // sibling's feet. Both failing at once is safe — the decisions
  // serialize on mu_, so the second failer sees no sibling and
  // proceeds to retry / fall back / surface.
  const auto is_sibling = [&](const AttemptPtr& a) {
    return a->rs == p.rs && a.get() != &p;
  };
  if (std::any_of(running_.begin(), running_.end(), is_sibling) ||
      std::any_of(queue_.begin(), queue_.end(), is_sibling) ||
      std::any_of(parked_.begin(), parked_.end(), is_sibling)) {
    ++stats_.late_completions;
    for (auto it = running_.begin(); it != running_.end(); ++it) {
      if (it->get() == &p) {
        running_.erase(it);
        break;
      }
    }
    update_queue_gauges();
    return true;
  }

  const auto now = Clock::now();
  AttemptPtr next;
  if (opts_.retry.retries_enabled() &&
      p.rs->attempts_on_solver < opts_.retry.max_attempts) {
    // Park a fresh attempt until its backoff elapses; the supervisor
    // promotes it back to the queue (workers never sleep on backoff).
    ++stats_.retries;
    if (m_retries_ != nullptr) m_retries_->inc();
    const auto delay = opts_.retry.backoff(p.rs->attempts_on_solver + 1,
                                           jitter_rng_.uniform());
    next = make_attempt(p.rs, now + delay);
    next->ready_at = now + delay;
    next->park_error = resp.error;
    parked_.push_back(next);
  } else if (opts_.degradation.has_fallbacks() &&
             p.rs->fallback_index < opts_.degradation.fallback_chain.size()) {
    // Retries exhausted on this solver: degrade down the chain rather
    // than surface kFailed. Front of the queue — the request already
    // waited its turn (and then some).
    ++stats_.fallbacks;
    if (m_fallbacks_ != nullptr) m_fallbacks_->inc();
    p.rs->solver = opts_.degradation.fallback_chain[p.rs->fallback_index++];
    p.rs->degraded = true;
    p.rs->plan_path = false;
    p.rs->attempts_on_solver = 0;
    next = make_attempt(p.rs, now);
    queue_.push_front(next);
  } else {
    return false;
  }

  for (auto it = running_.begin(); it != running_.end(); ++it) {
    if (it->get() == &p) {
      running_.erase(it);
      break;
    }
  }
  shed_.update_queue_depth(queue_.size());
  update_queue_gauges();
  work_cv_.notify_one();
  supervisor_cv_.notify_one();
  return true;
}

void SolveService::finish(Attempt& p, SolveResponse&& resp) {
  {
    common::MutexLock lock(mu_);
    resp.solver_used = p.rs->solver;
    resp.degraded = p.rs->degraded;
    resp.attempts = p.rs->attempts_started;
    resp.hedged = p.rs->hedges > 0;
    for (auto it = running_.begin(); it != running_.end(); ++it) {
      if (it->get() == &p) {
        running_.erase(it);
        break;
      }
    }

    const RequestOutcome outcome = resp.outcome;
    const value_t queue_seconds = resp.queue_seconds;
    const value_t solve_seconds = resp.solve_seconds;
    // Completed while still holding mu_, so a waiter that wakes on the
    // ticket observes fully-updated service stats (stats() serializes
    // on mu_ behind us). Lock order mu_ -> ticket mutex is the one
    // used everywhere; waiters never take mu_ under the ticket mutex.
    const bool won = p.rs->ticket->try_complete(std::move(resp));
    if (!won) {
      // A sibling attempt (hedge winner, watchdog requeue) got there
      // first; this attempt's work is dropped but accounted.
      ++stats_.late_completions;
      update_queue_gauges();
    } else {
      count_outcome_locked(outcome, queue_seconds, solve_seconds, p.is_hedge);
      // Cancel and unschedule the losers: queued/parked siblings are
      // removed outright, running ones are cooperatively cancelled.
      for (auto it = queue_.begin(); it != queue_.end();) {
        if ((*it)->rs == p.rs) {
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = parked_.begin(); it != parked_.end();) {
        if ((*it)->rs == p.rs) {
          it = parked_.erase(it);
        } else {
          ++it;
        }
      }
      for (const auto& r : running_) {
        if (r->rs == p.rs) {
          r->token.request_cancel(common::CancelReason::kHedge);
        }
      }
      shed_.update_queue_depth(queue_.size());
      update_queue_gauges();
    }
  }
  supervisor_cv_.notify_one();
}

void SolveService::count_outcome_locked(RequestOutcome outcome,
                                        value_t queue_seconds,
                                        value_t solve_seconds, bool is_hedge) {
  switch (outcome) {
    case RequestOutcome::kSolved:
      ++stats_.solved;
      if (m_solved_ != nullptr) m_solved_->inc();
      latency_.record(solve_seconds);
      if (is_hedge) ++stats_.hedge_wins;
      break;
    case RequestOutcome::kDeadlineExpired:
      ++stats_.deadline_expired;
      if (m_deadline_ != nullptr) m_deadline_->inc();
      break;
    case RequestOutcome::kCancelled:
      ++stats_.cancelled;
      if (m_cancelled_ != nullptr) m_cancelled_->inc();
      break;
    case RequestOutcome::kFailed:
      ++stats_.failed;
      if (m_failed_ != nullptr) m_failed_->inc();
      break;
    case RequestOutcome::kRejectedQueueFull:
    case RequestOutcome::kRejectedShutdown:
    case RequestOutcome::kRejectedCircuitOpen:
    case RequestOutcome::kRejectedLoadShed:
      break;  // counted at rejection time
  }
  if (opts_.degradation.enabled) {
    shed_.record_outcome(outcome == RequestOutcome::kDeadlineExpired);
  }
  if (m_queue_seconds_ != nullptr) m_queue_seconds_->record(queue_seconds);
  if (m_solve_seconds_ != nullptr) m_solve_seconds_->record(solve_seconds);
}

void SolveService::supervisor_loop() {
  common::MutexLock lock(mu_);
  while (!supervisor_stop_) {
    // Hedge delay for this evaluation round: the observed latency
    // percentile, floored so a cold tracker cannot hedge everything.
    const bool hedging = opts_.retry.hedging && !stopping_;
    Clock::duration hedge_delay{};
    if (hedging) {
      const value_t p = latency_.percentile(opts_.retry.hedge_percentile);
      hedge_delay = std::max<Clock::duration>(
          from_seconds(p),
          std::chrono::duration_cast<Clock::duration>(
              opts_.retry.hedge_min_delay));
    }
    const bool supervising = opts_.supervision.max_requeues > 0 && !stopping_;

    Clock::time_point earliest = Clock::time_point::max();
    for (const auto& p : queue_) earliest = std::min(earliest, p->deadline);
    for (const auto& p : parked_) earliest = std::min(earliest, p->ready_at);
    // Running attempts whose token is already tripped are the solver's
    // to finish — re-arming on their deadline would spin this loop (it
    // stays in the past until finish() removes them). Their stuck_at
    // stays armed regardless: the watchdog exists precisely for workers
    // that keep running after the deadline trip, and it is one-shot
    // (`watchdogged`), so it cannot spin.
    for (const auto& p : running_) {
      if (supervising && !p->watchdogged) {
        earliest = std::min(earliest, p->stuck_at);
      }
      if (p->token.requested()) continue;
      earliest = std::min(earliest, p->deadline);
      // A hedge needs a queue slot (step 4). With the queue full an
      // expired hedge timer would stay in the past and spin this loop
      // holding mu_, blocking every submit and dispatch until the
      // attempt's deadline; a worker's next dispatch frees a slot and
      // wakes this loop to re-arm it.
      if (hedging && !p->is_hedge && !p->hedge_spawned &&
          p->rs->hedges < opts_.retry.max_hedges &&
          queue_.size() < opts_.queue_capacity) {
        earliest = std::min(earliest, p->dispatched + hedge_delay);
      }
    }
    if (earliest == Clock::time_point::max()) {
      supervisor_cv_.wait(lock);  // woken on submit / finish / shutdown
      continue;
    }
    const Clock::time_point now = Clock::now();
    if (earliest > now) {
      supervisor_cv_.wait_for(lock, earliest - now);
      continue;  // re-evaluate: the set may have changed
    }

    // 1. Parked retries whose backoff elapsed go back to the queue.
    bool queued_work = false;
    for (auto it = parked_.begin(); it != parked_.end();) {
      if ((*it)->ready_at <= now) {
        queue_.push_back(*it);
        it = parked_.erase(it);
        queued_work = true;
      } else {
        ++it;
      }
    }

    // 2. Queued past-deadline attempts complete right here, without
    // ever dispatching. An expired hedge/requeue whose sibling is
    // still running is just dropped — the sibling owns the ticket.
    std::vector<AttemptPtr> expired;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->deadline <= now) {
        (*it)->token.request_cancel(common::CancelReason::kDeadline);
        expired.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& p : expired) {
      if (p->rs->plan_path && opts_.breaker.enabled) {
        breaker_.release(p->rs->fingerprint, p->rs->config);
      }
      SolveResponse r;
      r.outcome = RequestOutcome::kDeadlineExpired;
      r.result.status = SolverStatus::kAborted;
      r.queue_seconds = seconds_between(p->enqueued, now);
      r.solver_used = p->rs->solver;
      r.degraded = p->rs->degraded;
      r.attempts = p->rs->attempts_started;
      r.hedged = p->rs->hedges > 0;
      if (p->rs->ticket->try_complete(std::move(r))) {
        count_outcome_locked(RequestOutcome::kDeadlineExpired,
                             seconds_between(p->enqueued, now), 0.0, false);
      } else {
        ++stats_.late_completions;
      }
    }

    for (const auto& p : running_) {
      if (p->token.requested()) continue;
      // 3. Running past-deadline attempts get their *attempt* token
      // tripped (kDeadline) and stop at the next iteration boundary;
      // the request token stays untouched so a watchdog requeue can
      // still run under its own fresh budget.
      if (p->deadline <= now) {
        p->token.request_cancel(common::CancelReason::kDeadline);
        continue;
      }
      // 4. Hedging: a healthy-but-slow attempt past the latency
      // percentile gets one duplicate; first success wins.
      if (hedging && !p->is_hedge && !p->hedge_spawned &&
          p->rs->hedges < opts_.retry.max_hedges &&
          queue_.size() < opts_.queue_capacity &&
          p->dispatched + hedge_delay <= now) {
        p->hedge_spawned = true;
        ++p->rs->hedges;
        ++stats_.hedges;
        if (m_hedges_ != nullptr) m_hedges_->inc();
        AttemptPtr h = make_attempt(p->rs, now);
        h->is_hedge = true;
        queue_.push_front(h);  // a hedge is a latency rescue: jump the line
        queued_work = true;
      }
    }

    // 5. Stuck-worker supervision: an attempt still running at
    // deadline x grace is not honoring cooperative cancellation;
    // requeue a fresh attempt (bounded) so the request can still be
    // served by a healthy worker.
    if (supervising) {
      for (const auto& p : running_) {
        if (p->watchdogged || p->stuck_at > now) continue;
        // One-shot even when a sibling already answered: an expired
        // stuck_at left armed keeps `earliest` in the past, and this
        // loop would spin holding mu_ so the worker could never finish.
        p->watchdogged = true;
        if (p->rs->ticket->done()) continue;
        p->token.request_cancel(common::CancelReason::kWatchdog);
        if (p->rs->requeues < opts_.supervision.max_requeues) {
          ++p->rs->requeues;
          ++stats_.requeues;
          if (m_requeues_ != nullptr) m_requeues_->inc();
          queue_.push_front(make_attempt(p->rs, now));
          queued_work = true;
        }
      }
    }

    shed_.update_queue_depth(queue_.size());
    update_queue_gauges();
    if (queued_work) work_cv_.notify_all();
  }
}

void SolveService::shutdown(bool drain) {
  std::vector<AttemptPtr> rejected;
  std::vector<AttemptPtr> abandoned;
  {
    common::MutexLock lock(mu_);
    if (stopping_ && workers_.empty() && !supervisor_.joinable()) return;
    stopping_ = true;
    if (!drain) {
      for (const auto& p : queue_) {
        // Hedges and requeues have a running sibling that owns the
        // ticket; dropping them silently is the correct exit.
        if (p->is_hedge || p->rs->attempts_started > 1) continue;
        rejected.push_back(p);
      }
      queue_.clear();
      stats_.rejected_shutdown += rejected.size();
    }
    // Parked retries complete immediately with their last failure:
    // shutdown does not wait out backoff, in either drain mode.
    abandoned = std::move(parked_);
    parked_.clear();
    stats_.failed += abandoned.size();
    if (m_failed_ != nullptr) {
      for (std::size_t i = 0; i < abandoned.size(); ++i) m_failed_->inc();
    }
  }
  work_cv_.notify_all();
  supervisor_cv_.notify_all();
  for (const auto& p : rejected) {
    SolveResponse r;
    r.outcome = RequestOutcome::kRejectedShutdown;
    r.result.status = SolverStatus::kAborted;
    (void)p->rs->ticket->try_complete(std::move(r));
  }
  for (const auto& p : abandoned) {
    SolveResponse r;
    r.outcome = RequestOutcome::kFailed;
    r.result.status = SolverStatus::kAborted;
    r.error = p->park_error.empty()
                  ? "service shut down before retry"
                  : p->park_error + " (service shut down before retry)";
    r.attempts = p->rs->attempts_started;
    (void)p->rs->ticket->try_complete(std::move(r));
  }
  for (common::Thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  {
    common::MutexLock lock(mu_);
    supervisor_stop_ = true;
  }
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
}

ServiceStats SolveService::stats() const {
  ServiceStats out;
  {
    common::MutexLock lock(mu_);
    out = stats_;
    out.queue_depth = queue_.size();
    out.parked = parked_.size();
    out.active = running_.size();
    out.shed_active = shed_.active();
    out.shed_activations = shed_.activations();
    out.shed_deactivations = shed_.deactivations();
  }
  out.plan_cache = cache_.stats();
  out.breaker = breaker_.stats();
  return out;
}

}  // namespace bars::service
