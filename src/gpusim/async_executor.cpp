#include "gpusim/async_executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <queue>
#include <stdexcept>

#include "common/check.hpp"
#include "common/verify_hooks.hpp"
#include "gpusim/stopping.hpp"
#include "gpusim/worker_pool.hpp"
#include "stats/rng.hpp"

namespace bars::gpusim {

namespace {

enum class EventKind { kStart, kRead, kWrite };

struct Event {
  value_t time = 0.0;
  EventKind kind = EventKind::kStart;
  index_t block = 0;
  std::uint64_t seq = 0;  ///< deterministic tie-break
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Incremental minimum over the per-block write generations.
/// `on_write(b)` (called after the increment) is O(1) except when the
/// minimum advances — which takes all q blocks writing once — so the
/// rescan amortizes to O(1) per write, replacing the former O(q) scan
/// in every try_start() and a full-history scan per gate check.
class MinGenTracker {
 public:
  explicit MinGenTracker(const std::vector<index_t>& gen)
      : gen_(gen), at_min_(static_cast<index_t>(gen.size())) {}

  void on_write(index_t b) {
    if (gen_[static_cast<std::size_t>(b)] - 1 != min_gen_) return;
    if (--at_min_ > 0) return;
    min_gen_ = *std::min_element(gen_.begin(), gen_.end());
    at_min_ = static_cast<index_t>(
        std::count(gen_.begin(), gen_.end(), min_gen_));
  }

  [[nodiscard]] index_t min() const { return min_gen_; }

 private:
  const std::vector<index_t>& gen_;
  index_t min_gen_ = 0;
  index_t at_min_;
};

}  // namespace

AsyncExecutor::AsyncExecutor(const BlockKernel& kernel, ExecutorOptions opts)
    : kernel_(kernel), opts_(opts) {
  if (opts_.concurrent_slots <= 0) {
    throw std::invalid_argument("AsyncExecutor: concurrent_slots must be > 0");
  }
  if (opts_.global_iteration_time <= 0.0) {
    throw std::invalid_argument(
        "AsyncExecutor: global_iteration_time must be > 0");
  }
  if (opts_.num_workers < 0) {
    throw std::invalid_argument("AsyncExecutor: num_workers must be >= 0");
  }
}

AsyncExecutor::~AsyncExecutor() = default;

ExecutorResult AsyncExecutor::run(
    Vector& x, const std::function<value_t(const Vector&)>& residual_fn) {
  const index_t q = kernel_.num_blocks();
  const index_t n = kernel_.num_rows();
  if (static_cast<index_t>(x.size()) != n) {
    throw std::invalid_argument("AsyncExecutor::run: x size mismatch");
  }
  ExecutorResult res;
  res.block_executions.assign(static_cast<std::size_t>(q), 0);
  if (q == 0) {
    res.residual_history.push_back(residual_fn(x));
    res.time_history.push_back(0.0);
    if (res.residual_history.back() <= opts_.stopping.tol) {
      res.status = SolverStatus::kConverged;
    }
    return res;
  }

  Rng rng(opts_.seed);
  const bool deterministic = opts_.policy == SchedulePolicy::kRoundRobin;
  const index_t slots = std::min(opts_.concurrent_slots, q);
  const value_t mean_duration = opts_.global_iteration_time *
                                static_cast<value_t>(slots) /
                                static_cast<value_t>(q);

  // Fault timeline (Section 4.5 scenarios, composable form).
  std::optional<resilience::ScenarioTimeline> timeline;
  if (opts_.scenario && !opts_.scenario->empty()) {
    timeline.emplace(*opts_.scenario, n);
  }

  IterationMonitor monitor(opts_.stopping,
                           opts_.resilience ? &*opts_.resilience : nullptr,
                           timeline ? &*timeline : nullptr, q,
                           opts_.telemetry.observer);
  monitor.record_initial(residual_fn(x));

  // Per-block halo snapshot captured at READ, consumed at WRITE.
  std::vector<Vector> halo_snapshot(static_cast<std::size_t>(q));
  std::vector<TraceEvent> pending_trace(
      opts_.record_trace ? static_cast<std::size_t>(q) : 0);
  // Generation bookkeeping for the staleness diagnostic.
  std::vector<index_t> write_generation(static_cast<std::size_t>(q), 0);
  MinGenTracker gen_tracker(write_generation);
  // Staleness of the in-flight execution's halo read, sampled at kRead
  // and reported with the matching commit event.
  telemetry::SolveObserver* const obs = opts_.telemetry.observer;
  const bool emit_commits = obs != nullptr && opts_.telemetry.block_commits;
  std::vector<index_t> pending_staleness(
      emit_commits ? static_cast<std::size_t>(q) : 0, 0);

  // O(1) row -> owning block table; kills the former O(halo * q)
  // owner scan when assembling the staleness diagnostic's halo-source
  // lists (and any per-row owner query below).
  std::vector<index_t> owner(static_cast<std::size_t>(n), -1);
  for (index_t s = 0; s < q; ++s) {
    const auto [lo, hi] = kernel_.rows(s);
    for (index_t i = lo; i < hi; ++i) owner[static_cast<std::size_t>(i)] = s;
  }
  std::vector<std::vector<index_t>> halo_sources(static_cast<std::size_t>(q));
  for (index_t b = 0; b < q; ++b) {
    std::vector<index_t>& src = halo_sources[b];
    for (index_t gi : kernel_.halo(b)) {
      const index_t o = owner[static_cast<std::size_t>(gi)];
      if (o >= 0 && o != b) src.push_back(o);
    }
    std::sort(src.begin(), src.end());
    src.erase(std::unique(src.begin(), src.end()), src.end());
  }

  Rng pattern_rng(opts_.pattern_seed.value_or(0));
  const auto sample_duration = [&]() -> value_t {
    if (deterministic) return mean_duration;
    // Pattern mode: the jitter/straggler stream is shared by all runs;
    // the per-run seed only perturbs durations slightly.
    Rng& jitter_rng = opts_.pattern_seed ? pattern_rng : rng;
    value_t d = mean_duration *
                (1.0 + opts_.jitter * jitter_rng.uniform(-1.0, 1.0));
    if (jitter_rng.uniform() < opts_.straggler_prob) {
      d *= opts_.straggler_factor;
    }
    if (opts_.pattern_seed) {
      d *= 1.0 + opts_.run_noise * rng.uniform(-1.0, 1.0);
    }
    return d;
  };

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;

  // Ready queue and slot accounting. Blocks enter in scheduler order; a
  // free slot starts the front of the queue immediately. After its
  // WRITE a block re-enqueues itself (FIFO for kRoundRobin/kJittered;
  // at a random position for kShuffled), so every block runs infinitely
  // often with bounded skew — the Chazan-Miranker well-posedness
  // conditions.
  std::deque<index_t> ready;
  {
    std::vector<index_t> order(static_cast<std::size_t>(q));
    for (index_t b = 0; b < q; ++b) order[b] = b;
    if (opts_.policy == SchedulePolicy::kShuffled) rng.shuffle(order);
    ready.assign(order.begin(), order.end());
  }
  const auto requeue = [&](index_t b) {
    if (opts_.policy == SchedulePolicy::kShuffled && !ready.empty()) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<index_t>(ready.size())));
      ready.insert(ready.begin() + static_cast<std::ptrdiff_t>(pos), b);
    } else {
      ready.push_back(b);
    }
  };

  index_t busy_slots = 0;
  value_t now = 0.0;
  // Bounded-shift gate: blocks more than max_generation_skew ahead of
  // the slowest block wait (their slot idles until the laggard writes).
  const auto try_start = [&]() {
    const index_t min_gen = gen_tracker.min();
    std::deque<index_t> deferred;
    while (busy_slots < slots && !ready.empty()) {
      const index_t b = ready.front();
      ready.pop_front();
      if (write_generation[b] > min_gen + opts_.max_generation_skew) {
        deferred.push_back(b);
        continue;
      }
      ++busy_slots;
      events.push({now, EventKind::kStart, b, seq++});
    }
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      ready.push_front(*it);
    }
  };
  try_start();

  index_t total_writes = 0;
  index_t global_iter = 0;
  if (timeline) timeline->advance(0);

  // --- Parallel commit path -------------------------------------------
  // All WRITE events at one virtual time update disjoint owned row
  // ranges from already-frozen halo snapshots, so their kernel calls
  // are independent and run concurrently; the bookkeeping (trace,
  // counters, monitor boundaries, scheduling) is then replayed in
  // deterministic event order, making the result bit-identical to the
  // serial loop. Fault timelines and resilience policies may change
  // fault masks or rewrite x at iteration boundaries *inside* a batch,
  // so they force the serial path.
  const bool can_batch = opts_.num_workers > 1 &&
                         kernel_.parallel_commit_safe() && !timeline &&
                         !opts_.resilience;
  if (can_batch && !pool_) {
    pool_ = std::make_unique<WorkerPool>(opts_.num_workers);
  }
  // Pre-/post-commit values of each block's owned rows, reused across
  // batches: a parallel task saves the pre-batch rows, stages its result
  // in new_rows and restores x, so batched commits land in x one member
  // at a time, in event order.
  std::vector<Vector> saved_rows(can_batch ? static_cast<std::size_t>(q) : 0);
  std::vector<Vector> new_rows(can_batch ? static_cast<std::size_t>(q) : 0);
  const auto save_rows = [&](index_t b) -> Vector& {
    const auto [lo, hi] = kernel_.rows(b);
    Vector& old = saved_rows[static_cast<std::size_t>(b)];
    old.resize(static_cast<std::size_t>(hi - lo));
    std::copy(x.begin() + lo, x.begin() + hi, old.begin());
    return old;
  };

  bool stopped = false;
  // Commit bookkeeping for one WRITE (the kernel update itself already
  // ran). Mirrors the serial order exactly: trace, counters, requeue,
  // then the global-iteration boundary, then slot refill.
  const auto commit_write = [&](index_t b) {
    if (opts_.record_trace) res.trace.record(pending_trace[b]);
    if (emit_commits) {
      // Emitted from the serial replay in both commit paths, so the
      // event order is part of the bit-identity contract.
      telemetry::BlockCommitEvent cev;
      cev.block = b;
      cev.generation = write_generation[b];
      cev.virtual_time = now;
      cev.staleness = pending_staleness[b];
      obs->on_block_commit(cev);
    }
    ++res.block_executions[b];
    ++write_generation[b];
    gen_tracker.on_write(b);
    ++total_writes;
    BARS_DCHECK(busy_slots > 0)
        << "commit of block " << b << " at vt " << now
        << " with no busy slot";
    --busy_slots;
    requeue(b);
    if (total_writes % q == 0) {
      ++global_iter;
      const StopVerdict verdict = monitor.on_global_iteration(
          global_iter, now, x, residual_fn, res.block_executions);
      if (verdict != StopVerdict::kContinue) {
        res.status = monitor.status_for(verdict);
        stopped = true;
        return;
      }
    }
    try_start();
  };

  std::vector<Event> batch;

  while (!events.empty() && !stopped) {
    const Event ev = events.top();
    events.pop();
    now = ev.time;
    const index_t b = ev.block;

    if (ev.kind == EventKind::kStart) {
      const value_t duration = sample_duration();
      const value_t frac =
          std::clamp(opts_.read_fraction, value_t{0.0}, value_t{1.0});
      if (opts_.record_trace) {
        pending_trace[b] = TraceEvent{b, write_generation[b], now,
                                      now + frac * duration,
                                      now + duration};
      }
      events.push({now + frac * duration, EventKind::kRead, b, seq++});
      events.push({now + duration, EventKind::kWrite, b, seq++});
      continue;
    }

    if (ev.kind == EventKind::kRead) {
      // Snapshot halo values at virtual time `now` (mid-execution).
      const auto halo = kernel_.halo(b);
      Vector& snap = halo_snapshot[b];
      snap.resize(halo.size());
      for (std::size_t i = 0; i < halo.size(); ++i) snap[i] = x[halo[i]];
      if (timeline) timeline->maybe_corrupt_halo(snap);
      // Staleness diagnostic: generation gap to each halo source.
      index_t read_staleness = 0;
      for (index_t s : halo_sources[b]) {
        const index_t gap =
            std::abs(write_generation[b] - write_generation[s]);
        read_staleness = std::max(read_staleness, gap);
      }
      res.max_staleness = std::max(res.max_staleness, read_staleness);
      if (emit_commits) pending_staleness[b] = read_staleness;
      continue;
    }

    // WRITE: commit the block update.
    if (can_batch) {
      batch.clear();
      batch.push_back(ev);
      while (!events.empty() && events.top().kind == EventKind::kWrite &&
             events.top().time == ev.time) {
        batch.push_back(events.top());
        events.pop();
      }
      if (batch.size() > 1) {
        BARS_CHECK(pool_ != nullptr)
            << "parallel batch of " << batch.size() << " at vt " << now
            << " without a worker pool";
        // Batch members are distinct blocks (a block has at most one
        // execution in flight), so updates write disjoint rows of x
        // and per-block kernel scratch never collides. Each task then
        // stages its result and restores its rows, leaving x in the
        // pre-batch state: the replay below commits one member at a
        // time so every monitor check (and any mid-batch stop) sees
        // exactly the x the serial loop would have.
        pool_->run(
            static_cast<index_t>(batch.size()),
            [&](index_t i, index_t /*worker*/) {
              const index_t blk = batch[static_cast<std::size_t>(i)].block;
              const Vector& old = save_rows(blk);
              ExecContext ctx;
              ctx.virtual_time = now;
              ctx.block_generation = res.block_executions[blk];
              kernel_.update(blk, halo_snapshot[blk], x, ctx);
              const auto [lo, hi] = kernel_.rows(blk);
              // Declare this task's slice of x to the race oracle: the
              // disjoint-row claim above becomes machine-checked.
              BARS_VERIFY_WRITE(x.data() + lo,
                                static_cast<std::size_t>(hi - lo) *
                                    sizeof(value_t),
                                "executor.batch_rows");
              Vector& fresh = new_rows[static_cast<std::size_t>(blk)];
              fresh.resize(static_cast<std::size_t>(hi - lo));
              std::copy(x.begin() + lo, x.begin() + hi, fresh.begin());
              std::copy(old.begin(), old.end(), x.begin() + lo);
            });
        for (const Event& bev : batch) {
          if (stopped) break;  // serial would never reach these WRITEs
          const auto [lo, hi] = kernel_.rows(bev.block);
          const Vector& fresh = new_rows[static_cast<std::size_t>(bev.block)];
          std::copy(fresh.begin(), fresh.end(), x.begin() + lo);
          commit_write(bev.block);
        }
        continue;
      }
      // Fall through: a batch of one is just the serial case.
    }

    ExecContext ctx;
    ctx.virtual_time = now;
    ctx.block_generation = res.block_executions[b];
    ctx.failed_components = timeline ? timeline->component_mask() : nullptr;
    kernel_.update(b, halo_snapshot[b], x, ctx);
    commit_write(b);
  }

  res.global_iterations = global_iter;
  res.virtual_time = now;
  res.residual_history = std::move(monitor.residual_history());
  res.time_history = std::move(monitor.time_history());
  res.resilience = monitor.take_report();
  return res;
}

}  // namespace bars::gpusim
