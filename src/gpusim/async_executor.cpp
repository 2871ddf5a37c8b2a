#include "gpusim/async_executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <queue>
#include <span>
#include <stdexcept>

#include "common/check.hpp"
#include "common/verify_hooks.hpp"
#include "gpusim/stopping.hpp"
#include "gpusim/worker_pool.hpp"
#include "stats/rng.hpp"

namespace bars::gpusim {

namespace {

enum class EventKind : std::uint8_t {
  kStart,          ///< block begins execution
  kRead,           ///< mid-execution: snapshot the halo from the device view
  kWrite,          ///< block commits into its device view
  kSegmentArrive,  ///< a remote segment becomes visible on a device
  kSweepResume,    ///< a stalled device may begin its next sweep
};

struct Event {
  value_t time = 0.0;
  std::uint64_t seq = 0;  ///< deterministic tie-break
  /// The executing block; for kSegmentArrive, the segment's slot.
  index_t block = 0;
  std::int32_t device = 0;
  EventKind kind = EventKind::kStart;
};

/// AMC: host staging synchronization per sweep (stream sync).
constexpr value_t kAmcHostSyncOverheadS = 1.0e-3;
/// Base delay of the exponential backoff applied when a sweep-end
/// transfer hits a failed link (doubles per consecutive failure).
constexpr value_t kLinkRetryBackoffS = 1.0e-3;

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Incremental minimum over one device's per-block write generations.
/// `on_write(g)` (called with the written block's new generation) is
/// O(1) except when the minimum advances — which takes all of the
/// device's blocks writing once — so the rescan amortizes to O(1) per
/// write instead of an O(blocks) scan in every try_start().
class MinGenTracker {
 public:
  explicit MinGenTracker(std::span<const index_t> gen)
      : gen_(gen), at_min_(static_cast<index_t>(gen.size())) {}

  void on_write(index_t new_gen) {
    if (new_gen - 1 != min_gen_) return;
    if (--at_min_ > 0) return;
    min_gen_ = *std::min_element(gen_.begin(), gen_.end());
    at_min_ = static_cast<index_t>(
        std::count(gen_.begin(), gen_.end(), min_gen_));
  }

  [[nodiscard]] index_t min() const { return min_gen_; }

 private:
  std::span<const index_t> gen_;
  index_t min_gen_ = 0;
  index_t at_min_;
};

/// Scheduling state of one device: the write generations of its
/// contiguous blocks, their rows [row_begin, row_end), the ready queue
/// and slot accounting.
struct Device {
  explicit Device(std::span<const index_t> generations)
      : num_blocks(static_cast<index_t>(generations.size())),
        gen(generations) {}

  index_t num_blocks;
  index_t row_begin = 0;
  index_t row_end = 0;
  index_t slots = 0;
  std::deque<index_t> ready;
  MinGenTracker gen;
  index_t busy_slots = 0;
  index_t writes_in_sweep = 0;
  bool stalled = false;  ///< AMC/DC: waiting for the sweep-end transfer
  bool down = false;     ///< dropped out (as of the last boundary)
  /// Consecutive failed sweep-end transfers (link-failure backoff).
  index_t link_fails = 0;
};

/// A remote segment in flight: rows [begin, begin + values.size()) as
/// they were when the transfer started.
struct Segment {
  index_t begin = 0;
  Vector values;
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
  if (opts_.num_devices <= 0 || opts_.num_devices > 8) {
    throw std::invalid_argument("AsyncExecutor: 1..8 devices");
  }
  if (opts_.num_devices > 1 && opts_.scheme == TransferScheme::kNone) {
    throw std::invalid_argument(
        "AsyncExecutor: several devices need a transfer scheme");
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
  if (q == 0) {
    // An empty system has no boundary after 0: the rule's verdict there,
    // if any, is final.
    IterationMonitor monitor(opts_.stopping, nullptr, nullptr, 0,
                             opts_.telemetry.observer);
    if (const auto stop = monitor.record_initial(residual_fn(x))) {
      res.status = *stop;
    }
    res.residual_history = std::move(monitor.residual_history());
    res.time_history = std::move(monitor.time_history());
    return res;
  }

  Rng rng(opts_.seed);
  const bool deterministic = opts_.policy == SchedulePolicy::kRoundRobin;
  const bool shuffled = opts_.policy == SchedulePolicy::kShuffled;
  const bool transfers = opts_.scheme != TransferScheme::kNone;
  const bool dk = opts_.scheme == TransferScheme::kDK;
  const index_t nd = std::min(opts_.num_devices, q);
  const value_t mean_duration =
      opts_.global_iteration_time *
      static_cast<value_t>(std::min(opts_.concurrent_slots, q)) /
      static_cast<value_t>(q);
  const value_t read_frac =
      std::clamp(opts_.read_fraction, value_t{0.0}, value_t{1.0});

  // Generation bookkeeping: bounded-shift gate, staleness diagnostic,
  // and the final per-block execution counts.
  std::vector<index_t> write_generation(static_cast<std::size_t>(q), 0);

  // Contiguous block and row ranges per device; the ready queues hold
  // the blocks in scheduler order.
  std::vector<Device> dev;
  dev.reserve(static_cast<std::size_t>(nd));
  for (index_t d = 0; d < nd; ++d) {
    const index_t first = q * d / nd;
    const index_t end = q * (d + 1) / nd;
    Device& dv = dev.emplace_back(
        std::span<const index_t>(write_generation)
            .subspan(static_cast<std::size_t>(first),
                     static_cast<std::size_t>(end - first)));
    dv.row_begin = kernel_.rows(first).first;
    dv.row_end = kernel_.rows(end - 1).second;
    dv.slots = std::min(opts_.concurrent_slots, end - first);
    std::vector<index_t> order;
    for (index_t b = first; b < end; ++b) order.push_back(b);
    if (shuffled) rng.shuffle(order);
    dv.ready.assign(order.begin(), order.end());
  }

  // Fault timeline (Section 4.5 scenarios, composable form). Device
  // dropout and link failures act only on a device layout.
  std::optional<resilience::ScenarioTimeline> timeline;
  if (opts_.scenario && !opts_.scenario->empty()) {
    timeline.emplace(*opts_.scenario, n, nd);
  }
  const bool device_faults = timeline && transfers;

  telemetry::SolveObserver* const obs = opts_.telemetry.observer;
  const bool emit_commits = obs != nullptr && opts_.telemetry.block_commits;

  IterationMonitor monitor(opts_.stopping,
                           opts_.resilience ? &*opts_.resilience : nullptr,
                           timeline ? &*timeline : nullptr, q, obs);
  // The rule may stop the solve at boundary 0, before any block runs.
  const std::optional<SolverStatus> initial =
      monitor.record_initial(residual_fn(x));
  bool stopped = initial.has_value();
  if (stopped) res.status = *initial;

  // Residual proxy (plain single-device runs with opts_.rhs_norm set):
  // every update writes its block's squared residual at read time into
  // slot b, and P = sqrt(sum of slots) / ||b|| stands in for the exact
  // residual until it nears tol (IterationMonitor decides when). A
  // negative slot is a block whose kernel did not write it, which
  // leaves that boundary to the exact residual.
  const bool use_proxy =
      opts_.rhs_norm > 0.0 && !timeline && !opts_.resilience && !transfers;
  std::vector<value_t> residual_sq(use_proxy ? static_cast<std::size_t>(q) : 0,
                                   -1.0);
  const auto proxy_residual = [&]() -> value_t {
    if (!use_proxy) return -1.0;
    value_t sum = 0.0;
    for (const value_t s : residual_sq) {
      if (s < 0.0) return -1.0;
      sum += s;
    }
    return std::sqrt(sum) / opts_.rhs_norm;
  };

  // x is the canonical iterate (monitoring, result). Under AMC and DC
  // each device computes on its own view of it; every commit is
  // mirrored into x. Under kNone and DK all devices share x itself.
  const bool own_views = transfers && !dk;
  std::vector<Vector> views(own_views ? static_cast<std::size_t>(nd) : 0, x);
  const auto view_of = [&](index_t d) -> Vector& {
    return own_views ? views[d] : x;
  };

  // Per-block halo snapshot captured at READ, consumed at WRITE.
  std::vector<Vector> halo_snapshot(static_cast<std::size_t>(q));
  std::vector<TraceEvent> pending_trace(
      opts_.record_trace ? static_cast<std::size_t>(q) : 0);
  // Staleness of the in-flight execution's halo read, sampled at kRead
  // and reported with the matching commit event.
  std::vector<index_t> pending_staleness(
      emit_commits ? static_cast<std::size_t>(q) : 0, 0);

  // O(1) row -> owning block table, for the staleness diagnostic's
  // halo-source lists.
  std::vector<index_t> owner(static_cast<std::size_t>(n), -1);
  for (index_t s = 0; s < q; ++s) {
    const auto [lo, hi] = kernel_.rows(s);
    for (index_t i = lo; i < hi; ++i) owner[static_cast<std::size_t>(i)] = s;
  }
  // Each halo splits into maximal runs of consecutive rows (a sorted
  // halo of a banded or block-structured matrix has few, long ones); the
  // READ snapshot copies whole runs instead of gathering row by row.
  struct HaloRun {
    index_t first;  ///< first global row of the run
    index_t count;
  };
  std::vector<std::vector<index_t>> halo_sources(static_cast<std::size_t>(q));
  std::vector<std::vector<HaloRun>> halo_runs(static_cast<std::size_t>(q));
  for (index_t b = 0; b < q; ++b) {
    std::vector<index_t>& src = halo_sources[b];
    std::vector<HaloRun>& runs = halo_runs[b];
    for (index_t gi : kernel_.halo(b)) {
      const index_t o = owner[static_cast<std::size_t>(gi)];
      if (o >= 0 && o != b) src.push_back(o);
      if (!runs.empty() && runs.back().first + runs.back().count == gi) {
        ++runs.back().count;
      } else {
        runs.push_back({gi, 1});
      }
    }
    std::sort(src.begin(), src.end());
    src.erase(std::unique(src.begin(), src.end()), src.end());
  }

  Rng pattern_rng(opts_.pattern_seed.value_or(0));
  const auto sample_duration = [&](index_t d) -> value_t {
    value_t dur = mean_duration;
    if (!deterministic) {
      // Pattern mode: the jitter/straggler stream is shared by all runs;
      // the per-run seed only perturbs durations slightly.
      Rng& jitter_rng = opts_.pattern_seed ? pattern_rng : rng;
      dur *= 1.0 + opts_.jitter * jitter_rng.uniform(-1.0, 1.0);
      if (jitter_rng.uniform() < opts_.straggler_prob) {
        dur *= opts_.straggler_factor;
      }
      if (opts_.pattern_seed) {
        dur *= 1.0 + opts_.run_noise * rng.uniform(-1.0, 1.0);
      }
    }
    if (dk) {
      if (d != 0) {
        dur *= opts_.transfer.dk_remote_penalty;
      } else if (nd > 1) {
        // The master's memory controller also services every remote
        // peer's accesses.
        dur *= 1.0 + opts_.transfer.dk_master_penalty_per_peer *
                         static_cast<value_t>(nd - 1);
      }
    }
    return dur;
  };

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  value_t now = 0.0;

  // After its WRITE a block re-enqueues itself (FIFO for
  // kRoundRobin/kJittered; at a random position for kShuffled), so
  // every block runs infinitely often with bounded skew — the
  // Chazan-Miranker well-posedness conditions.
  const auto requeue = [&](Device& dv, index_t b) {
    if (shuffled && !dv.ready.empty()) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<index_t>(dv.ready.size())));
      dv.ready.insert(dv.ready.begin() + static_cast<std::ptrdiff_t>(pos), b);
    } else {
      dv.ready.push_back(b);
    }
  };

  // A free slot starts the front of the device's ready queue
  // immediately. Bounded-shift gate: blocks more than
  // max_generation_skew ahead of the device's slowest block wait (their
  // slot idles until the laggard writes).
  std::vector<index_t> deferred;
  const auto try_start = [&](index_t d) {
    Device& dv = dev[d];
    if (dv.stalled || (device_faults && timeline->device_down(d))) return;
    const index_t min_gen = dv.gen.min();
    deferred.clear();
    while (dv.busy_slots < dv.slots && !dv.ready.empty()) {
      const index_t b = dv.ready.front();
      dv.ready.pop_front();
      if (write_generation[b] > min_gen + opts_.max_generation_skew) {
        deferred.push_back(b);
        continue;
      }
      ++dv.busy_slots;
      events.push({now, seq++, b, static_cast<std::int32_t>(d),
                   EventKind::kStart});
    }
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      dv.ready.push_front(*it);
    }
  };
  if (timeline) timeline->advance(0);
  for (index_t d = 0; d < nd; ++d) {
    dev[d].down = device_faults && timeline->device_down(d);
    try_start(d);
  }

  index_t total_writes = 0;
  index_t global_iter = 0;

  // --- Transfer schemes (paper Sections 3.4, 4.6) ---------------------
  std::optional<Topology> topo;
  Link master_link;  // the DC master GPU's P2P path
  index_t socket1_devices = 0;
  if (transfers) {
    topo.emplace(nd, InterconnectSpec::supermicro_x8dtg());
    for (index_t d = 0; d < nd; ++d) {
      if (topo->socket_of(d) != 0) ++socket1_devices;
    }
  }
  index_t link_retries = 0;
  const value_t full_bytes = 8.0 * static_cast<value_t>(n);
  const auto segment_bytes = [&](index_t d) {
    const Device& dv = dev[d];
    return 8.0 * static_cast<value_t>(dv.row_end - dv.row_begin);
  };
  // Segments in flight, recycled through a free list.
  std::vector<Segment> segments;
  std::vector<index_t> free_segments;
  const auto push_arrival = [&](index_t dst, index_t src, value_t at) {
    index_t slot = 0;
    if (free_segments.empty()) {
      slot = static_cast<index_t>(segments.size());
      segments.emplace_back();
    } else {
      slot = free_segments.back();
      free_segments.pop_back();
    }
    const Device& sv = dev[src];
    Segment& seg = segments[slot];
    seg.begin = sv.row_begin;
    seg.values.assign(x.begin() + sv.row_begin, x.begin() + sv.row_end);
    events.push({at, seq++, slot, static_cast<std::int32_t>(dst),
                 EventKind::kSegmentArrive});
  };

  // End-of-sweep transfer of device d. Returns the virtual time at
  // which d may start its next sweep (== `at` when it does not stall).
  const auto on_sweep_end = [&](index_t d, value_t at) -> value_t {
    Device& dv = dev[d];
    if (timeline && timeline->link_down(d)) {
      // The transfer attempt fails: no segment becomes visible anywhere,
      // and the device backs off exponentially before computing on. The
      // next sweep end retries.
      ++link_retries;
      if (obs) {
        obs->on_recovery_event({telemetry::RecoveryEvent::Kind::kLinkRetry,
                                global_iter, 0.0, d});
      }
      const value_t backoff =
          kLinkRetryBackoffS *
          static_cast<value_t>(index_t{1}
                               << std::min<index_t>(dv.link_fails, 6));
      ++dv.link_fails;
      return at + backoff;
    }
    dv.link_fails = 0;
    switch (opts_.scheme) {
      case TransferScheme::kNone:
        return at;
      case TransferScheme::kAMC: {
        // Upload own segment to host on own link; stall for the stream
        // sync + upload, then keep computing. Host forwards to others.
        // Host staging memory lives on socket 0, so socket-1 devices
        // pay the QPI/NUMA staging cost synchronously (the paper's
        // observed >2-GPU penalty, Section 4.6). That cost is a
        // per-round resource: the socket-1 devices' DMA batches
        // pipeline through it, so each pays its share (this is why the
        // paper's 4-GPU run beats the 3-GPU run: the QPI path "is
        // included anyway", Section 4.6).
        const bool cross = topo->socket_of(d) != 0;
        const value_t qpi_share =
            cross ? opts_.transfer.qpi_round_overhead_s /
                            static_cast<value_t>(
                                std::max<index_t>(socket1_devices, 1)) +
                        topo->spec().qpi_latency_s
                  : 0.0;
        const value_t up_dur = kAmcHostSyncOverheadS +
                               topo->host_transfer_duration(segment_bytes(d)) +
                               qpi_share;
        const value_t up_done = topo->pcie(d).acquire(at, up_dur);
        res.bytes_host_device += segment_bytes(d);
        ++res.num_transfers;
        for (index_t e = 0; e < nd; ++e) {
          if (e == d) continue;
          const bool cross_e = topo->socket_of(e) != 0;
          const value_t down_done = topo->pcie(e).acquire(
              up_done, topo->host_transfer_duration(segment_bytes(d)));
          res.bytes_host_device += segment_bytes(d);
          ++res.num_transfers;
          // Downloads to socket-1 devices pay the QPI staging cost as a
          // pure visibility delay (asynchronous on the receiving side;
          // it must not block the receiver's own link horizon).
          const value_t visible_at =
              down_done +
              (cross_e ? opts_.transfer.qpi_round_overhead_s : 0.0);
          push_arrival(e, d, visible_at);
        }
        return up_done;
      }
      case TransferScheme::kDC: {
        if (d == 0) {
          // On Fermi, GPU-direct copies serialize with kernel
          // execution on the master: it cannot start its next sweep
          // while its copy engine is draining peer transfers.
          return std::max(at, master_link.busy_until());
        }
        // Push own segment to master, then pull the canonical vector
        // back; both serialize on the master's P2P link with a
        // GPU-direct sync cost each. The device stalls until the pull
        // completes (it needs the canonical x for its next sweep).
        const value_t push_dur =
            opts_.transfer.dc_sync_overhead_s +
            topo->p2p_transfer_duration(segment_bytes(d), d, 0);
        const value_t push_done = master_link.acquire(at, push_dur);
        res.bytes_device_device += segment_bytes(d);
        ++res.num_transfers;
        push_arrival(0, d, push_done);
        const value_t pull_dur =
            opts_.transfer.dc_sync_overhead_s +
            topo->p2p_transfer_duration(full_bytes, 0, d);
        const value_t pull_done = master_link.acquire(push_done, pull_dur);
        res.bytes_device_device += full_bytes;
        ++res.num_transfers;
        // The pulled vector is the master view at pull start; approximate
        // with the owner segments at pull completion commit time (the
        // master only gains newer values in between).
        for (index_t other = 0; other < nd; ++other) {
          if (other == d) continue;
          push_arrival(d, other, pull_done);
        }
        return pull_done;
      }
      case TransferScheme::kDK:
        // Writes went straight to the master's memory; nothing to do,
        // but account the P2P traffic of the remote sweep.
        if (d != 0) {
          res.bytes_device_device += segment_bytes(d);
          ++res.num_transfers;
        }
        return at;
    }
    return at;
  };

  // Device dropout transitions become visible after the timeline
  // advanced at a boundary: a rejoining device refreshes its view from
  // the canonical vector and resumes launching blocks.
  const auto on_device_transitions = [&]() {
    for (index_t e = 0; e < nd; ++e) {
      Device& dv = dev[e];
      const bool down = timeline->device_down(e);
      if (dv.down && !down) {
        if (own_views) views[e] = x;
        if (obs) {
          obs->on_recovery_event(
              {telemetry::RecoveryEvent::Kind::kDeviceRejoin, global_iter,
               0.0, e});
        }
        try_start(e);
      } else if (!dv.down && down && obs) {
        obs->on_recovery_event(
            {telemetry::RecoveryEvent::Kind::kDeviceDropout, global_iter,
             0.0, e});
      }
      dv.down = down;
    }
  };

  // --- Parallel commit path -------------------------------------------
  // All WRITE events at one virtual time update disjoint owned row
  // ranges from already-frozen halo snapshots, so their kernel calls
  // are independent and run concurrently; the bookkeeping (trace,
  // counters, monitor boundaries, scheduling) is then replayed in
  // deterministic event order, making the result bit-identical to the
  // serial loop. Fault timelines and resilience policies may change
  // fault masks or rewrite x at iteration boundaries *inside* a batch,
  // and transfer schemes move segments between views at sweep ends, so
  // all of them force the serial path.
  const bool can_batch = opts_.num_workers > 1 &&
                         kernel_.parallel_commit_safe() && !timeline &&
                         !opts_.resilience && !transfers;
  if (can_batch && !pool_) {
    pool_ = std::make_unique<WorkerPool>(opts_.num_workers);
  }
  // Pre-/post-commit values of each block's owned rows, reused across
  // batches: a parallel task saves the pre-batch rows, stages its result
  // in new_rows and restores x, so batched commits land in x one member
  // at a time, in event order.
  std::vector<Vector> saved_rows(can_batch ? static_cast<std::size_t>(q) : 0);
  std::vector<Vector> new_rows(can_batch ? static_cast<std::size_t>(q) : 0);
  // Staged residual slots, published with their rows at the replay.
  std::vector<value_t> new_residual_sq(
      can_batch && use_proxy ? static_cast<std::size_t>(q) : 0);
  const auto save_rows = [&](index_t b) -> Vector& {
    const auto [lo, hi] = kernel_.rows(b);
    Vector& old = saved_rows[static_cast<std::size_t>(b)];
    old.resize(static_cast<std::size_t>(hi - lo));
    std::copy(x.begin() + lo, x.begin() + hi, old.begin());
    return old;
  };

  // Commit bookkeeping for one WRITE of block b on device d (the kernel
  // update itself already ran): trace, counters, requeue, the
  // device-sweep end, the global-iteration boundary, then slot refill.
  const auto commit_write = [&](index_t d, index_t b) {
    Device& dv = dev[d];
    if (opts_.record_trace) res.trace.record(pending_trace[b]);
    if (emit_commits) {
      // Emitted from the serial replay in both commit paths, so the
      // event order is part of the bit-identity contract.
      telemetry::BlockCommitEvent cev;
      cev.block = b;
      cev.device = d;
      cev.generation = write_generation[b];
      cev.virtual_time = now;
      cev.staleness = pending_staleness[b];
      obs->on_block_commit(cev);
    }
    dv.gen.on_write(++write_generation[b]);
    ++total_writes;
    BARS_DCHECK(dv.busy_slots > 0)
        << "commit of block " << b << " at vt " << now
        << " with no busy slot";
    --dv.busy_slots;
    requeue(dv, b);
    if (transfers && ++dv.writes_in_sweep == dv.num_blocks) {
      dv.writes_in_sweep = 0;
      const value_t resume_at = on_sweep_end(d, now);
      if (resume_at > now) {
        dv.stalled = true;
        events.push({resume_at, seq++, 0, static_cast<std::int32_t>(d),
                     EventKind::kSweepResume});
      }
    }
    if (total_writes % q == 0) {
      ++global_iter;
      if (timeline) {
        // A silent corruption strikes before the boundary's residual,
        // in the canonical iterate and in every device's view.
        timeline->corrupt_iterate(global_iter, x);
        for (Vector& v : views) timeline->corrupt_iterate(global_iter, v);
      }
      const index_t mutations_before = monitor.iterate_mutations();
      const std::optional<SolverStatus> stop = monitor.on_global_iteration(
          global_iter, now, x, residual_fn, write_generation,
          proxy_residual());
      if (monitor.iterate_mutations() != mutations_before) {
        // A rollback / damped restart rewrote the canonical iterate;
        // broadcast it so no device writes stale state back over the
        // restored solution.
        for (Vector& v : views) v = x;
      }
      if (stop) {
        res.status = *stop;
        stopped = true;
        return;
      }
      if (device_faults) on_device_transitions();
    }
    try_start(d);
  };

  std::vector<Event> batch;

  while (!events.empty() && !stopped) {
    const Event ev = events.top();
    events.pop();
    now = ev.time;
    const index_t b = ev.block;
    const index_t d = ev.device;

    switch (ev.kind) {
      case EventKind::kStart: {
        const value_t duration = sample_duration(d);
        if (opts_.record_trace) {
          pending_trace[b] = TraceEvent{b, write_generation[b], now,
                                        now + read_frac * duration,
                                        now + duration};
        }
        events.push({now + read_frac * duration, seq++, b, ev.device,
                     EventKind::kRead});
        events.push(
            {now + duration, seq++, b, ev.device, EventKind::kWrite});
        break;
      }
      case EventKind::kRead: {
        // Snapshot halo values at virtual time `now` (mid-execution).
        const Vector& view = view_of(d);
        Vector& snap = halo_snapshot[b];
        snap.resize(kernel_.halo(b).size());
        value_t* dst = snap.data();
        for (const HaloRun& run : halo_runs[b]) {
          dst = std::copy_n(view.data() + run.first, run.count, dst);
        }
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
        break;
      }
      case EventKind::kWrite: {
        if (can_batch) {
          batch.clear();
          batch.push_back(ev);
          while (!events.empty() &&
                 events.top().kind == EventKind::kWrite &&
                 events.top().time == ev.time) {
            batch.push_back(events.top());
            events.pop();
          }
          if (batch.size() > 1) {
            BARS_CHECK(pool_ != nullptr)
                << "parallel batch of " << batch.size() << " at vt " << now
                << " without a worker pool";
            // Batch members are distinct blocks (a block has at most
            // one execution in flight), so updates write disjoint rows
            // of x and per-block kernel scratch never collides. Each
            // task then stages its result and restores its rows,
            // leaving x in the pre-batch state: the replay below
            // commits one member at a time so every monitor check (and
            // any mid-batch stop) sees exactly the x the serial loop
            // would have.
            pool_->run(
                static_cast<index_t>(batch.size()),
                [&](index_t i, index_t /*worker*/) {
                  const index_t blk =
                      batch[static_cast<std::size_t>(i)].block;
                  const Vector& old = save_rows(blk);
                  ExecContext ctx;
                  ctx.virtual_time = now;
                  if (use_proxy) {
                    value_t& slot =
                        new_residual_sq[static_cast<std::size_t>(blk)];
                    slot = -1.0;
                    ctx.residual_sq = &slot;
                    BARS_VERIFY_WRITE(&slot, sizeof(value_t),
                                      "executor.residual_slot");
                  }
                  kernel_.update(blk, halo_snapshot[blk], x, ctx);
                  const auto [lo, hi] = kernel_.rows(blk);
                  // Declare this task's slice of x to the race oracle:
                  // the disjoint-row claim above becomes
                  // machine-checked.
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
              const Vector& fresh =
                  new_rows[static_cast<std::size_t>(bev.block)];
              std::copy(fresh.begin(), fresh.end(), x.begin() + lo);
              if (use_proxy) {
                residual_sq[static_cast<std::size_t>(bev.block)] =
                    new_residual_sq[static_cast<std::size_t>(bev.block)];
              }
              commit_write(bev.device, bev.block);
            }
            break;
          }
          // Fall through: a batch of one is just the serial case.
        }
        ExecContext ctx;
        ctx.virtual_time = now;
        ctx.failed_components =
            timeline ? timeline->component_mask() : nullptr;
        if (use_proxy) {
          residual_sq[static_cast<std::size_t>(b)] = -1.0;
          ctx.residual_sq = &residual_sq[static_cast<std::size_t>(b)];
        }
        Vector& view = view_of(d);
        kernel_.update(b, halo_snapshot[b], view, ctx);
        if (own_views) {
          // Mirror own rows into the canonical iterate.
          const auto [lo, hi] = kernel_.rows(b);
          std::copy(view.begin() + lo, view.begin() + hi, x.begin() + lo);
        }
        commit_write(d, b);
        break;
      }
      case EventKind::kSegmentArrive: {
        // Install the remote rows, never clobbering the device's own.
        const Device& dv = dev[d];
        Segment& seg = segments[b];
        Vector& view = view_of(d);
        const auto end = seg.begin + static_cast<index_t>(seg.values.size());
        for (index_t i = seg.begin; i < end; ++i) {
          if (i >= dv.row_begin && i < dv.row_end) continue;
          view[i] = seg.values[static_cast<std::size_t>(i - seg.begin)];
        }
        free_segments.push_back(b);
        break;
      }
      case EventKind::kSweepResume:
        dev[d].stalled = false;
        try_start(d);
        break;
    }
  }

  res.global_iterations = global_iter;
  res.virtual_time = now;
  res.residual_history = std::move(monitor.residual_history());
  res.time_history = std::move(monitor.time_history());
  res.resilience = monitor.take_report();
  res.resilience.transfer_retries = link_retries;
  res.block_executions = std::move(write_generation);
  return res;
}

}  // namespace bars::gpusim
