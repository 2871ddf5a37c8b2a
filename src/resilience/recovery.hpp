#pragma once

#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "sparse/types.hpp"

/// \file recovery.hpp
/// Active recovery machinery layered on top of the fault scenarios of
/// scenario.hpp: lightweight checkpointing of the iterate keyed to the
/// residual history, a streaming residual-anomaly detector (the online
/// mode of core::detect_silent_error), and a watchdog supervisor that
/// monitors per-block execution counts and residual contraction,
/// reassigns stalled components, and requests a damped restart on
/// divergence. All three are executor-agnostic: the shared
/// gpusim::IterationMonitor drives them at global-iteration boundaries
/// for both the single- and multi-GPU executors.

namespace bars::resilience {

// ---------------------------------------------------------------- checkpoint

struct CheckpointOptions {
  /// Try to save every `interval` global iterations.
  index_t interval = 5;
  /// Replace the stored checkpoint only when the residual improved by
  /// at least this factor (< 1 demands real progress; 1.0 = any
  /// improvement). Keying saves to residual improvement guarantees a
  /// corrupted iterate is never checkpointed.
  value_t improvement_factor = 1.0;
  /// Rollbacks permitted per solve before the detector becomes
  /// report-only (guards against rollback livelock on persistent
  /// faults, which are the watchdog's job, not the checkpoint's).
  index_t max_rollbacks = 3;
};

struct Checkpoint {
  index_t iteration = -1;
  value_t residual = 0.0;
  Vector x;
};

/// Stores the single best (lowest-residual) checkpoint of a run.
class CheckpointStore {
 public:
  explicit CheckpointStore(CheckpointOptions opts = {});

  /// Offer the iterate after global iteration `iter`; saved when due
  /// and strictly improving.
  void observe(index_t iter, value_t residual, const Vector& x);

  [[nodiscard]] bool has() const { return best_.iteration >= 0; }
  [[nodiscard]] const Checkpoint& best() const { return best_; }
  [[nodiscard]] index_t saved_count() const { return saved_; }

 private:
  CheckpointOptions opts_;
  Checkpoint best_;
  bool empty_ = true;
  index_t saved_ = 0;
};

// ------------------------------------------------------------ online detector

/// Thresholds of the residual-anomaly detector, shared by the online
/// mode below and the batch core::detect_silent_error.
struct AnomalyOptions {
  /// Flag when r_{k+1} / r_k exceeds this multiple of the recent trend.
  value_t jump_factor = 10.0;
  /// Flag when the residual fails to contract by at least this factor
  /// over `stall_window` iterations (while far from the rounding floor).
  index_t stall_window = 10;
  value_t stall_factor = 0.9;
  value_t floor = 1e-13;
  /// Iterations to establish the trend before detection arms.
  index_t warmup = 3;
};

enum class AnomalyKind {
  kJump,       ///< residual jumped >> recent trend (SDC signature)
  kStall,      ///< no contraction over the stall window (dead components)
  kNonFinite,  ///< residual became NaN/Inf
};

struct Anomaly {
  AnomalyKind kind = AnomalyKind::kJump;
  index_t at_iteration = -1;  ///< history index of the anomalous sample
  value_t jump_ratio = 0.0;
};

/// Streaming form of the batch residual-history scan: push one residual
/// per global iteration (the first push is the initial residual) and an
/// anomaly is reported the moment it appears, enabling in-flight
/// rollback instead of post-hoc diagnosis. Feeding a full history
/// through push() reproduces core::detect_silent_error exactly.
class OnlineResidualDetector {
 public:
  explicit OnlineResidualDetector(AnomalyOptions opts = {});

  [[nodiscard]] std::optional<Anomaly> push(value_t residual);

  /// Re-seed after a rollback: the contraction trend survives, but the
  /// pre-rollback samples must not feed the stall window.
  void reset(value_t resume_residual);

 private:
  AnomalyOptions opts_;
  std::deque<value_t> window_;  ///< last stall_window + 1 raw samples
  bool has_prev_ = false;
  value_t prev_ = 0.0;
  value_t trend_ = 0.0;  ///< geometric-mean contraction of healthy steps
  index_t trend_n_ = 0;
  index_t k_ = -1;  ///< index of the most recent sample
};

// ----------------------------------------------------------------- watchdog

struct WatchdogOptions {
  /// Inspect block executions / residual progress every this many
  /// global iterations.
  index_t check_interval = 5;
  /// Reassignment trigger: residual improved by less than
  /// (1 - stall_improvement) over `stall_checks` consecutive checks
  /// while above `floor`.
  value_t stall_improvement = 0.9;
  index_t stall_checks = 2;
  value_t floor = 1e-13;
  /// Divergence trigger: residual exceeds this multiple of the best
  /// residual seen so far (or goes non-finite).
  value_t divergence_factor = 1.0e4;
  /// Damping applied to the restart iterate (rollback target or zero).
  value_t restart_damping = 0.5;
  index_t max_restarts = 2;
};

/// What the watchdog asks the monitor to do after one observation.
struct WatchdogVerdict {
  /// Blocks whose execution count stopped advancing while the median
  /// block progressed (first time flagged only).
  std::vector<index_t> newly_stalled_blocks;
  /// Residual contraction stalled: reassign failed components now.
  bool reassign = false;
  /// Residual blew up: restart (damped) from the best checkpoint.
  bool damped_restart = false;
};

/// Supervises a run: per-block liveness from execution counters,
/// residual contraction online. Pure observer — the IterationMonitor
/// performs the actions it requests.
class Watchdog {
 public:
  Watchdog(WatchdogOptions opts, index_t num_blocks);

  [[nodiscard]] WatchdogVerdict observe(index_t iter, value_t residual,
                                        std::span<const index_t> block_execs);

  /// Forget history after a restart so the new trajectory is judged
  /// fresh.
  void reset(value_t resume_residual);

 private:
  WatchdogOptions opts_;
  std::vector<index_t> last_execs_;
  std::vector<std::uint8_t> flagged_;
  std::deque<value_t> check_residuals_;
  index_t next_check_ = 0;
  value_t best_residual_ = 0.0;
  bool has_best_ = false;
};

// ------------------------------------------------------------------- policy

/// Recovery configuration attached to a solve. Everything defaults on;
/// a default-constructed Policy is the recommended production setting.
struct Policy {
  bool checkpointing = true;
  CheckpointOptions checkpoint{};
  bool online_detection = true;
  AnomalyOptions detector{};
  bool watchdog = true;
  WatchdogOptions supervisor{};
};

/// What the resilience machinery did during one solve.
struct Report {
  index_t checkpoints_saved = 0;
  index_t detections = 0;  ///< online anomalies flagged
  std::vector<index_t> detection_iterations;
  index_t rollbacks = 0;        ///< checkpoint restores after detection
  index_t damped_restarts = 0;  ///< divergence restarts
  index_t watchdog_reassignments = 0;  ///< reassignment events triggered
  index_t components_reassigned = 0;   ///< components freed by those events
  std::vector<index_t> stalled_blocks;  ///< blocks flagged dead/stalled
  index_t halo_corruptions = 0;   ///< transient corruptions injected
  index_t transfer_retries = 0;   ///< failed link transfer attempts
};

}  // namespace bars::resilience
