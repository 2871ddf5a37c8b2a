#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/solver_status.hpp"
#include "common/stop_rule.hpp"
#include "resilience/recovery.hpp"
#include "resilience/scenario.hpp"
#include "sparse/types.hpp"
#include "telemetry/observer.hpp"

/// \file stopping.hpp
/// Per-global-iteration bookkeeping of AsyncExecutor's run loop:
/// residual/time history recording, the residual proxy, and the single
/// place where the resilience layer hooks into a solve — online SDC
/// detection with checkpoint rollback, watchdog supervision with
/// component reassignment, and damped restarts on divergence. The
/// verdict itself is the library's one StopRule.

namespace bars::gpusim {

/// Drives one solve's global-iteration boundaries. `policy` and
/// `timeline` may be null (plain run, legacy behavior bit-for-bit).
/// The monitor owns the residual/time histories; the executor moves
/// them into its result after the run loop.
///
/// The monitor is also a telemetry emission point: when an observer is
/// attached it receives one on_iteration per boundary (mirroring the
/// history entries) and one on_recovery_event per resilience action.
/// Solver front-ends emit on_start / on_finish themselves (they know
/// the solver name and the wall clock); the executor emits
/// on_block_commit.
class IterationMonitor {
 public:
  IterationMonitor(StopRule rule,
                   const resilience::Policy* policy,
                   resilience::ScenarioTimeline* timeline,
                   index_t num_blocks,
                   telemetry::SolveObserver* observer = nullptr);

  /// Record the initial residual (history index 0, time 0) and return
  /// the rule's boundary-0 verdict; no value continues.
  [[nodiscard]] std::optional<SolverStatus> record_initial(value_t r0);

  /// Handle the boundary after global iteration `iter`: record the
  /// residual, advance the fault timeline, run detector/checkpoint/
  /// watchdog hooks (which may mutate x — rollback, damped restart),
  /// and return the rule's verdict; no value continues. A converged run
  /// whose iterate the hooks rewrote along the way is
  /// kRecoveredConverged. Once the cancel token is tripped the solve is
  /// abandoned: the verdict is taken before any hook runs, so it never
  /// rolls back, restarts, or saves a checkpoint.
  ///
  /// `proxy` is the executor's residual proxy for this boundary, or
  /// negative when it has none (proxies are passed for plain runs only:
  /// no policy, no timeline). While the proxy P stays clear of tol —
  /// P > tol * max(10, 3 * P_prev / P), P_prev being the previous
  /// history entry, so a fast contraction widens the margin — the
  /// boundary records P and continues without calling residual_fn.
  /// Once P comes within that margin every later boundary is exact.
  /// Boundary 1, cancel, the iteration limit, and non-finite or
  /// over-limit values of P also fall through to the exact residual, so
  /// only an exact value decides a stop.
  std::optional<SolverStatus> on_global_iteration(
      index_t iter, value_t now, Vector& x,
      const std::function<value_t(const Vector&)>& residual_fn,
      std::span<const index_t> block_executions, value_t proxy = -1.0);

  [[nodiscard]] std::vector<value_t>& residual_history() { return history_; }
  [[nodiscard]] std::vector<value_t>& time_history() { return times_; }

  /// Number of times the monitor rewrote the iterate (rollbacks +
  /// damped restarts). The executor compares this across a boundary
  /// call to know when per-device views must be re-broadcast.
  [[nodiscard]] index_t iterate_mutations() const {
    return report_.rollbacks + report_.damped_restarts;
  }

  /// Resilience activity of the run so far (halo-corruption counts are
  /// folded in from the timeline).
  [[nodiscard]] resilience::Report take_report();

 private:
  void emit_recovery(telemetry::RecoveryEvent::Kind kind, index_t iter,
                     value_t residual, index_t detail = 0) {
    if (observer_ == nullptr) return;
    observer_->on_recovery_event({kind, iter, residual, detail});
  }

  void damped_restart(index_t iter, Vector& x, value_t& r,
                      const std::function<value_t(const Vector&)>& residual_fn);

  /// Append one history entry and mirror it to the observer.
  void record(index_t iter, value_t now, value_t r);

  /// True when `proxy` may stand in for the exact residual at boundary
  /// `iter` (see on_global_iteration); latches exact_only_ once the
  /// proxy nears tol.
  bool proxy_decides(index_t iter, value_t proxy);

  /// The rule's verdict, with kConverged upgraded to
  /// kRecoveredConverged once the iterate was rewritten.
  [[nodiscard]] std::optional<SolverStatus> verdict(index_t iter,
                                                    value_t r) const;

  StopRule rule_;
  resilience::ScenarioTimeline* timeline_;
  std::optional<resilience::CheckpointStore> checkpoint_;
  std::optional<resilience::OnlineResidualDetector> detector_;
  std::optional<resilience::Watchdog> watchdog_;
  index_t max_restarts_ = 0;
  value_t restart_damping_ = 0.5;
  index_t max_rollbacks_ = 0;
  index_t restarts_done_ = 0;
  bool exact_only_ = false;
  std::vector<value_t> history_;
  std::vector<value_t> times_;
  resilience::Report report_;
  telemetry::SolveObserver* observer_ = nullptr;
};

}  // namespace bars::gpusim
