#include "gpusim/multi_device.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <queue>
#include <stdexcept>

#include "gpusim/stopping.hpp"
#include "stats/rng.hpp"

namespace bars::gpusim {

namespace {

enum class EventKind {
  kStart,          ///< block begins execution
  kRead,           ///< mid-execution: snapshot halo from device view
  kWrite,          ///< block commits into device view + canonical x
  kSegmentArrive,  ///< a remote segment becomes visible on a device
  kSweepResume,    ///< device may begin its next sweep (DC stall ends)
};

struct Event {
  value_t time = 0.0;
  EventKind kind = EventKind::kStart;
  index_t device = 0;
  index_t block = 0;  ///< for kStart/kWrite
  std::uint64_t seq = 0;
  /// kSegmentArrive payload: rows [seg_begin, seg_end) and their values
  /// snapshotted at transfer start.
  index_t seg_begin = 0;
  index_t seg_end = 0;
  std::shared_ptr<const Vector> payload;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

MultiDeviceExecutor::MultiDeviceExecutor(const BlockKernel& kernel,
                                         MultiDeviceOptions opts)
    : kernel_(kernel), opts_(opts) {
  if (opts_.num_devices <= 0 || opts_.num_devices > 8) {
    throw std::invalid_argument("MultiDeviceExecutor: 1..8 devices");
  }
  if (opts_.slots_per_device <= 0 || opts_.global_iteration_time <= 0.0) {
    throw std::invalid_argument("MultiDeviceExecutor: bad options");
  }
}

MultiDeviceResult MultiDeviceExecutor::run(
    Vector& x, const std::function<value_t(const Vector&)>& residual_fn) {
  const index_t q = kernel_.num_blocks();
  const index_t n = kernel_.num_rows();
  const index_t nd = std::min(opts_.num_devices, q);
  if (static_cast<index_t>(x.size()) != n) {
    throw std::invalid_argument("MultiDeviceExecutor::run: x size mismatch");
  }

  MultiDeviceResult res;
  if (q == 0) {
    res.residual_history.push_back(residual_fn(x));
    res.time_history.push_back(0.0);
    if (res.residual_history.back() <= opts_.stopping.tol) {
      res.status = SolverStatus::kConverged;
    }
    return res;
  }

  Topology topo(nd, InterconnectSpec::supermicro_x8dtg());
  Link master_link;  // the DC master GPU's P2P path
  Rng rng(opts_.seed);

  // Contiguous block ranges per device.
  std::vector<std::pair<index_t, index_t>> dev_blocks(
      static_cast<std::size_t>(nd));
  for (index_t d = 0; d < nd; ++d) {
    dev_blocks[d] = {q * d / nd, q * (d + 1) / nd};
  }
  // Row segment per device (contiguous because blocks are contiguous).
  std::vector<std::pair<index_t, index_t>> dev_rows(
      static_cast<std::size_t>(nd));
  for (index_t d = 0; d < nd; ++d) {
    dev_rows[d] = {kernel_.rows(dev_blocks[d].first).first,
                   kernel_.rows(dev_blocks[d].second - 1).second};
  }

  const bool dk = opts_.scheme == TransferScheme::kDK;
  // Device views of the iterate. In DK there is a single canonical
  // vector in the master's memory; views collapse onto view[0].
  std::vector<Vector> views(dk ? 1 : static_cast<std::size_t>(nd), x);
  const auto view_of = [&](index_t d) -> Vector& {
    return dk ? views[0] : views[static_cast<std::size_t>(d)];
  };
  // Canonical assembly of owner segments (residual monitoring). In DK
  // this *is* views[0].
  Vector canonical = x;
  const auto canonical_ref = [&]() -> Vector& {
    return dk ? views[0] : canonical;
  };

  const value_t per_block_duration =
      opts_.global_iteration_time *
      static_cast<value_t>(std::min(opts_.slots_per_device, q)) /
      static_cast<value_t>(q);

  const auto sample_duration = [&](index_t device) {
    value_t dur = per_block_duration *
                  (1.0 + opts_.jitter * rng.uniform(-1.0, 1.0));
    if (rng.uniform() < opts_.straggler_prob) dur *= opts_.straggler_factor;
    if (dk) {
      if (device != 0) {
        dur *= opts_.params.dk_remote_penalty;
      } else if (nd > 1) {
        // The master's memory controller also services every remote
        // peer's accesses.
        dur *= 1.0 + opts_.params.dk_master_penalty_per_peer *
                         static_cast<value_t>(nd - 1);
      }
    }
    return dur;
  };

  // Per-device scheduling state.
  struct DeviceState {
    std::deque<index_t> ready;
    index_t busy_slots = 0;
    index_t writes_in_sweep = 0;
    bool stalled = false;  ///< DC/AMC: waiting for the sweep-end transfer
  };
  std::vector<DeviceState> dev(static_cast<std::size_t>(nd));
  for (index_t d = 0; d < nd; ++d) {
    for (index_t b = dev_blocks[d].first; b < dev_blocks[d].second; ++b) {
      dev[d].ready.push_back(b);
    }
  }
  std::vector<index_t> write_generation(static_cast<std::size_t>(q), 0);

  // Fault timeline (Section 4.5 scenarios, multi-GPU variant): the
  // composable script covers component failures, halo corruption,
  // device dropout/rejoin, and transfer-link failures.
  std::optional<resilience::ScenarioTimeline> timeline;
  if (opts_.scenario && !opts_.scenario->empty()) {
    timeline.emplace(*opts_.scenario, n, nd);
  }

  telemetry::SolveObserver* const obs = opts_.telemetry.observer;
  const bool emit_commits = obs != nullptr && opts_.telemetry.block_commits;

  IterationMonitor monitor(opts_.stopping,
                           opts_.resilience ? &*opts_.resilience : nullptr,
                           timeline ? &*timeline : nullptr, q, obs);
  monitor.record_initial(residual_fn(x));
  if (timeline) timeline->advance(0);

  std::vector<std::uint8_t> was_down(static_cast<std::size_t>(nd), 0);
  for (index_t d = 0; d < nd; ++d) {
    was_down[d] = timeline && timeline->device_down(d) ? 1 : 0;
  }
  // Link-failure retry/backoff accounting (consecutive failed attempts
  // per device; reset on the first healthy sweep-end transfer).
  std::vector<index_t> link_fails(static_cast<std::size_t>(nd), 0);
  index_t link_retries = 0;

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  value_t now = 0.0;

  const auto try_start = [&](index_t d) {
    DeviceState& s = dev[d];
    if (s.stalled) return;
    if (timeline && timeline->device_down(d)) return;
    const index_t slots =
        std::min(opts_.slots_per_device,
                 dev_blocks[d].second - dev_blocks[d].first);
    index_t min_gen = write_generation[dev_blocks[d].first];
    for (index_t b = dev_blocks[d].first; b < dev_blocks[d].second; ++b) {
      min_gen = std::min(min_gen, write_generation[b]);
    }
    std::deque<index_t> deferred;
    while (s.busy_slots < slots && !s.ready.empty()) {
      const index_t b = s.ready.front();
      s.ready.pop_front();
      if (write_generation[b] > min_gen + opts_.max_generation_skew) {
        deferred.push_back(b);
        continue;
      }
      ++s.busy_slots;
      Event e;
      e.time = now;
      e.kind = EventKind::kStart;
      e.device = d;
      e.block = b;
      e.seq = seq++;
      events.push(e);
    }
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      s.ready.push_front(*it);
    }
  };
  for (index_t d = 0; d < nd; ++d) try_start(d);

  std::vector<Vector> halo_snapshot(static_cast<std::size_t>(q));

  index_t total_writes = 0;
  index_t global_iter = 0;
  bool stop = false;

  // Scheme transfer bookkeeping.
  const auto segment_bytes = [&](index_t d) {
    return 8.0 * static_cast<value_t>(dev_rows[d].second - dev_rows[d].first);
  };
  const value_t full_bytes = 8.0 * static_cast<value_t>(n);

  const auto push_arrival = [&](index_t dst, index_t src_dev, value_t at) {
    Event e;
    e.time = at;
    e.kind = EventKind::kSegmentArrive;
    e.device = dst;
    e.seq = seq++;
    e.seg_begin = dev_rows[src_dev].first;
    e.seg_end = dev_rows[src_dev].second;
    auto payload = std::make_shared<Vector>(
        canonical.begin() + e.seg_begin, canonical.begin() + e.seg_end);
    e.payload = std::move(payload);
    events.push(e);
  };

  // End-of-sweep transfer logic per scheme. Returns the virtual time at
  // which device d may start its next sweep (== `at` when no stall).
  const auto on_sweep_end = [&](index_t d, value_t at) -> value_t {
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
          opts_.link_retry_backoff_s *
          static_cast<value_t>(index_t{1} << std::min<index_t>(link_fails[d], 6));
      ++link_fails[d];
      return at + backoff;
    }
    link_fails[d] = 0;
    switch (opts_.scheme) {
      case TransferScheme::kAMC: {
        // Upload own segment to host on own link; stall for the stream
        // sync + upload, then keep computing. Host forwards to others.
        // Host staging memory lives on socket 0, so socket-1 devices
        // pay the QPI/NUMA staging cost synchronously (the paper's
        // observed >2-GPU penalty, Section 4.6).
        const bool cross = topo.socket_of(d) != 0;
        // The QPI staging cost is a per-round resource: the socket-1
        // devices' DMA batches pipeline through it, so each pays its
        // share (this is why the paper's 4-GPU run beats the 3-GPU run:
        // the QPI path "is included anyway", Section 4.6).
        index_t socket1_devices = 0;
        for (index_t e = 0; e < nd; ++e) {
          if (topo.socket_of(e) != 0) ++socket1_devices;
        }
        const value_t qpi_share =
            cross ? opts_.params.qpi_round_overhead_s /
                        static_cast<value_t>(std::max<index_t>(
                            socket1_devices, 1)) +
                        topo.spec().qpi_latency_s
                  : 0.0;
        const value_t up_dur = opts_.amc_host_sync_overhead_s +
                               topo.host_transfer_duration(segment_bytes(d)) +
                               qpi_share;
        const value_t up_done = topo.pcie(d).acquire(at, up_dur);
        res.bytes_host_device += segment_bytes(d);
        ++res.num_transfers;
        for (index_t e = 0; e < nd; ++e) {
          if (e == d) continue;
          const bool cross_e = topo.socket_of(e) != 0;
          const value_t down_done = topo.pcie(e).acquire(
              up_done, topo.host_transfer_duration(segment_bytes(d)));
          res.bytes_host_device += segment_bytes(d);
          ++res.num_transfers;
          // Downloads to socket-1 devices pay the QPI staging cost as a
          // pure visibility delay (asynchronous on the receiving side;
          // it must not block the receiver's own link horizon).
          const value_t visible_at =
              down_done +
              (cross_e ? opts_.params.qpi_round_overhead_s : 0.0);
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
            opts_.params.dc_sync_overhead_s +
            topo.p2p_transfer_duration(segment_bytes(d), d, 0);
        const value_t push_done = master_link.acquire(at, push_dur);
        res.bytes_device_device += segment_bytes(d);
        ++res.num_transfers;
        push_arrival(0, d, push_done);
        const value_t pull_dur = opts_.params.dc_sync_overhead_s +
                                 topo.p2p_transfer_duration(full_bytes, 0, d);
        const value_t pull_done = master_link.acquire(push_done, pull_dur);
        res.bytes_device_device += full_bytes;
        ++res.num_transfers;
        // The pulled vector is the master view at pull start; approximate
        // with master view at pull completion commit time (the master
        // only gains newer values in between).
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

  while (!stop && !events.empty()) {
    Event ev = events.top();
    events.pop();
    now = ev.time;
    const index_t d = ev.device;

    switch (ev.kind) {
      case EventKind::kStart: {
        const value_t duration = sample_duration(d);
        const value_t frac =
            std::clamp(opts_.read_fraction, value_t{0.0}, value_t{1.0});
        Event rd = ev;
        rd.kind = EventKind::kRead;
        rd.time = now + frac * duration;
        rd.seq = seq++;
        events.push(rd);
        Event w = ev;
        w.kind = EventKind::kWrite;
        w.time = now + duration;
        w.seq = seq++;
        events.push(w);
        break;
      }
      case EventKind::kRead: {
        const auto halo = kernel_.halo(ev.block);
        Vector& view = view_of(d);
        Vector& snap = halo_snapshot[ev.block];
        snap.resize(halo.size());
        for (std::size_t i = 0; i < halo.size(); ++i) snap[i] = view[halo[i]];
        if (timeline) timeline->maybe_corrupt_halo(snap);
        break;
      }
      case EventKind::kWrite: {
        ExecContext ctx;
        ctx.virtual_time = now;
        ctx.failed_components =
            timeline ? timeline->component_mask() : nullptr;
        Vector& view = view_of(d);
        kernel_.update(ev.block, halo_snapshot[ev.block], view, ctx);
        if (!dk) {
          // Mirror own rows into the canonical assembly.
          const auto [lo, hi] = kernel_.rows(ev.block);
          std::copy(view.begin() + lo, view.begin() + hi,
                    canonical.begin() + lo);
        }
        if (emit_commits) {
          telemetry::BlockCommitEvent cev;
          cev.block = ev.block;
          cev.device = d;
          cev.generation = write_generation[ev.block];
          cev.virtual_time = now;
          obs->on_block_commit(cev);
        }
        ++total_writes;
        ++write_generation[ev.block];
        DeviceState& s = dev[d];
        --s.busy_slots;
        ++s.writes_in_sweep;
        s.ready.push_back(ev.block);

        const index_t dq = dev_blocks[d].second - dev_blocks[d].first;
        if (s.writes_in_sweep >= dq) {
          s.writes_in_sweep = 0;
          const value_t resume_at = on_sweep_end(d, now);
          if (resume_at > now) {
            s.stalled = true;
            Event r;
            r.time = resume_at;
            r.kind = EventKind::kSweepResume;
            r.device = d;
            r.seq = seq++;
            events.push(r);
          }
        }

        if (total_writes % q == 0) {
          ++global_iter;
          const index_t mutations_before = monitor.iterate_mutations();
          const StopVerdict verdict = monitor.on_global_iteration(
              global_iter, now, canonical_ref(), residual_fn,
              write_generation);
          if (!dk && monitor.iterate_mutations() != mutations_before) {
            // A rollback / damped restart rewrote the canonical
            // iterate; broadcast it so no device writes stale state
            // back over the restored solution.
            for (Vector& v : views) v = canonical;
          }
          if (verdict != StopVerdict::kContinue) {
            res.status = monitor.status_for(verdict);
            stop = true;
            break;
          }
          // Device dropout transitions become visible after the
          // timeline advanced: a rejoining device refreshes its view
          // from the canonical vector and resumes launching blocks.
          if (timeline) {
            for (index_t e = 0; e < nd; ++e) {
              const bool down = timeline->device_down(e);
              if (was_down[e] && !down) {
                if (!dk) views[static_cast<std::size_t>(e)] = canonical;
                if (obs) {
                  obs->on_recovery_event(
                      {telemetry::RecoveryEvent::Kind::kDeviceRejoin,
                       global_iter, 0.0, e});
                }
                try_start(e);
              } else if (!was_down[e] && down && obs) {
                obs->on_recovery_event(
                    {telemetry::RecoveryEvent::Kind::kDeviceDropout,
                     global_iter, 0.0, e});
              }
              was_down[e] = down ? 1 : 0;
            }
          }
        }
        try_start(d);
        break;
      }
      case EventKind::kSegmentArrive: {
        if (!dk && ev.payload) {
          Vector& view = view_of(d);
          // Never clobber the device's own segment.
          const auto [own_lo, own_hi] = dev_rows[d];
          for (index_t i = ev.seg_begin; i < ev.seg_end; ++i) {
            if (i >= own_lo && i < own_hi) continue;
            view[i] = (*ev.payload)[i - ev.seg_begin];
          }
        }
        break;
      }
      case EventKind::kSweepResume: {
        dev[d].stalled = false;
        try_start(d);
        break;
      }
    }
  }

  res.global_iterations = global_iter;
  res.virtual_time = now;
  res.residual_history = std::move(monitor.residual_history());
  res.time_history = std::move(monitor.time_history());
  res.resilience = monitor.take_report();
  res.resilience.transfer_retries = link_retries;
  x = canonical_ref();
  return res;
}

}  // namespace bars::gpusim
