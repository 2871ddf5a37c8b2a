#include "gpusim/stopping.hpp"

#include <algorithm>

namespace bars::gpusim {

// The recovery state (checkpoint_/detector_/watchdog_) is member
// std::optional, engaged once in the constructor and never reset. Every
// access below is behind an engagement guard, but opaque calls between
// guard and access (residual_fn, emit_recovery) force clang-tidy's flow
// analysis to conservatively drop the guard fact, so the check would
// flag accesses that cannot fail.
// NOLINTBEGIN(bugprone-unchecked-optional-access)

using telemetry::RecoveryEvent;

IterationMonitor::IterationMonitor(StopRule rule,
                                   const resilience::Policy* policy,
                                   resilience::ScenarioTimeline* timeline,
                                   index_t num_blocks,
                                   telemetry::SolveObserver* observer)
    : rule_(rule), timeline_(timeline), observer_(observer) {
  if (policy) {
    if (policy->checkpointing) {
      checkpoint_.emplace(policy->checkpoint);
      max_rollbacks_ = policy->checkpoint.max_rollbacks;
    }
    if (policy->online_detection) detector_.emplace(policy->detector);
    if (policy->watchdog) {
      watchdog_.emplace(policy->supervisor, num_blocks);
      max_restarts_ = policy->supervisor.max_restarts;
      restart_damping_ = policy->supervisor.restart_damping;
    }
  }
}

void IterationMonitor::record(index_t iter, value_t now, value_t r) {
  history_.push_back(r);
  times_.push_back(now);
  if (observer_) observer_->on_iteration({iter, r, now});
}

std::optional<SolverStatus> IterationMonitor::record_initial(value_t r0) {
  record(0, 0.0, r0);
  if (detector_) (void)detector_->push(r0);
  return rule_.verdict(0, r0);
}

std::optional<SolverStatus> IterationMonitor::verdict(index_t iter,
                                                      value_t r) const {
  const std::optional<SolverStatus> stop = rule_.verdict(iter, r);
  if (stop == SolverStatus::kConverged && iterate_mutations() > 0) {
    return SolverStatus::kRecoveredConverged;
  }
  return stop;
}

bool IterationMonitor::proxy_decides(index_t iter, value_t proxy) {
  // !(proxy >= 0) also rejects NaN; a negative proxy means none. At
  // boundary 1 the proxy is the starting iterate's residual with no
  // contraction to scale the margin by, so a system solved in one
  // global iteration (a diagonal one) would stop a boundary late.
  if (exact_only_ || iter <= 1 || !(proxy >= 0.0)) return false;
  // The proxy lags the iterate by about one sweep, so the margin grows
  // with the contraction P_prev / P seen over the last boundary. Any
  // verdict leaves the boundary to the exact residual; a proxy within
  // the margin of tol leaves every later boundary to it too.
  const std::optional<SolverStatus> stop = rule_.estimate_verdict(
      iter, proxy, std::max(10.0, 3.0 * history_.back() / proxy));
  if (stop == SolverStatus::kConverged) exact_only_ = true;
  return !stop;
}

void IterationMonitor::damped_restart(
    index_t iter, Vector& x, value_t& r,
    const std::function<value_t(const Vector&)>& residual_fn) {
  if (checkpoint_ && checkpoint_->has()) {
    x = checkpoint_->best().x;
  } else {
    std::fill(x.begin(), x.end(), value_t{0.0});
  }
  for (value_t& xi : x) xi *= restart_damping_;
  r = residual_fn(x);
  ++restarts_done_;
  ++report_.damped_restarts;
  if (detector_) detector_->reset(r);
  if (watchdog_) watchdog_->reset(r);
  emit_recovery(RecoveryEvent::Kind::kDampedRestart, iter, r);
}

std::optional<SolverStatus> IterationMonitor::on_global_iteration(
    index_t iter, value_t now, Vector& x,
    const std::function<value_t(const Vector&)>& residual_fn,
    std::span<const index_t> block_executions, value_t proxy) {
  if (proxy_decides(iter, proxy)) {
    record(iter, now, proxy);
    return std::nullopt;
  }
  value_t r = residual_fn(x);
  record(iter, now, r);
  if (timeline_) timeline_->advance(iter);

  // An abandoned solve stops before the recovery machinery runs: it
  // must not roll back, restart, or save checkpoints.
  if (rule_.cancelled()) return verdict(iter, r);

  bool anomalous = false;
  if (detector_) {
    if (const auto anomaly = detector_->push(r)) {
      ++report_.detections;
      report_.detection_iterations.push_back(iter);
      anomalous = true;
      emit_recovery(RecoveryEvent::Kind::kAnomalyDetected, iter, r,
                    static_cast<index_t>(anomaly->kind));
      // Roll back on corruption signatures (jump / non-finite). A stall
      // is dead components, not a bad iterate — rolling back cannot
      // help; that is the watchdog's reassignment case.
      if (anomaly->kind != resilience::AnomalyKind::kStall && checkpoint_ &&
          checkpoint_->has() && report_.rollbacks < max_rollbacks_) {
        x = checkpoint_->best().x;
        r = residual_fn(x);
        ++report_.rollbacks;
        detector_->reset(r);
        if (watchdog_) watchdog_->reset(r);
        emit_recovery(RecoveryEvent::Kind::kRollback, iter, r);
      }
    }
  }

  if (watchdog_) {
    const resilience::WatchdogVerdict v =
        watchdog_->observe(iter, r, block_executions);
    for (index_t b : v.newly_stalled_blocks) {
      report_.stalled_blocks.push_back(b);
      emit_recovery(RecoveryEvent::Kind::kBlockStalled, iter, r, b);
    }
    if (v.reassign && timeline_) {
      const index_t freed = timeline_->reassign_failed_components();
      if (freed > 0) {
        ++report_.watchdog_reassignments;
        report_.components_reassigned += freed;
        emit_recovery(RecoveryEvent::Kind::kWatchdogReassignment, iter, r,
                      freed);
      }
    }
    if (v.damped_restart && restarts_done_ < max_restarts_) {
      damped_restart(iter, x, r, residual_fn);
    }
  }

  // Checkpoint only clean iterates: an anomalous residual must never
  // become the rollback target.
  if (checkpoint_ && !anomalous) {
    const index_t before = checkpoint_->saved_count();
    checkpoint_->observe(iter, r, x);
    report_.checkpoints_saved = checkpoint_->saved_count();
    if (report_.checkpoints_saved > before) {
      emit_recovery(RecoveryEvent::Kind::kCheckpointSaved, iter, r);
    }
  }

  // The watchdog's damped restart gets one chance to rescue a diverged
  // iterate before the verdict stands.
  if (rule_.verdict(iter, r) == SolverStatus::kDiverged && watchdog_ &&
      restarts_done_ < max_restarts_) {
    damped_restart(iter, x, r, residual_fn);
  }
  return verdict(iter, r);
}

resilience::Report IterationMonitor::take_report() {
  if (timeline_) report_.halo_corruptions = timeline_->halo_corruptions();
  return std::move(report_);
}

// NOLINTEND(bugprone-unchecked-optional-access)

}  // namespace bars::gpusim
