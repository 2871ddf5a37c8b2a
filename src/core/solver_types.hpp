#pragma once

#include <optional>
#include <vector>

#include "common/cancel.hpp"
#include "common/solver_status.hpp"
#include "common/stop_rule.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"
#include "telemetry/options.hpp"
#include "telemetry/probe.hpp"

/// \file solver_types.hpp
/// Common option/result types for all iterative solvers in BARS.

namespace bars {

/// Stopping and bookkeeping options shared by every solver. Solver
/// families embed this struct (CgOptions::solve, MgOptions::solve,
/// BlockAsyncOptions::solve, ...) rather than re-declaring the knobs,
/// so one naming convention covers the whole library.
struct SolveOptions {
  index_t max_iters = 1000;
  /// Convergence when ||b - A x||_2 <= tol * ||b||_2 (absolute when
  /// ||b|| == 0). The paper reports relative l2 residuals throughout.
  value_t tol = 1e-14;
  /// Treat the run as diverged once the relative residual exceeds this.
  value_t divergence_limit = 1e30;
  /// Record the residual after every iteration (Figs. 6, 7, 9, 10).
  bool record_history = true;
  /// Observability hooks (observer + metrics registry). Null members
  /// disable the feature; see docs/OBSERVABILITY.md.
  telemetry::TelemetryOptions telemetry{};
  /// Cooperative cancellation: when non-null, every solver polls the
  /// token at iteration boundaries and exits with
  /// SolverStatus::kAborted once it is tripped (the iterate computed so
  /// far is returned). Null disables the check. The pointee must
  /// outlive the solve; see common/cancel.hpp.
  const common::CancelToken* cancel = nullptr;

  /// The stopping rule these options describe.
  [[nodiscard]] StopRule stop_rule() const noexcept {
    return {max_iters, tol, divergence_limit, cancel};
  }
};

/// Result of a solver run.
struct SolveResult {
  Vector x;
  /// Why the solve stopped (the unified vocabulary from
  /// common/solver_status.hpp).
  SolverStatus status = SolverStatus::kMaxIterations;
  index_t iterations = 0;
  value_t final_residual = 0.0;  ///< relative l2 residual at exit
  /// residual_history[k] = relative residual after k iterations
  /// (entry 0 is the initial residual). Empty if record_history off.
  std::vector<value_t> residual_history;
  /// For solvers with a virtual-time model: simulated seconds at which
  /// each history entry was recorded. Empty for plain CPU solvers.
  std::vector<value_t> time_history;

  /// The solve ended at or below tol (kConverged or
  /// kRecoveredConverged).
  [[nodiscard]] bool ok() const noexcept { return succeeded(status); }
};

/// The bookkeeping every solver loop shares, written once: each
/// boundary's history entry and on_iteration event, the StopRule
/// verdict, and on a verdict the result's status, final residual and
/// on_finish event. A plain loop reads
///
///   SolveRecorder rec(res, opts, "jacobi");
///   rec.probe().start(a.rows(), a.nnz());
///   value_t rel = ...;                  // boundary 0
///   while (rec.proceed(rel)) {
///     ... one iteration ...
///     rel = ...;
///     ++res.iterations;
///   }
class SolveRecorder {
 public:
  SolveRecorder(SolveResult& res, const SolveOptions& opts,
                const char* solver)
      : res_(res),
        rule_(opts.stop_rule()),
        record_history_(opts.record_history),
        probe_(opts.telemetry, solver) {}

  [[nodiscard]] const StopRule& rule() const noexcept { return rule_; }
  [[nodiscard]] telemetry::SolveProbe& probe() noexcept { return probe_; }

  /// Write down boundary `iter`: the residual history entry (when
  /// recorded) and the on_iteration event, stamped `time`.
  void record(index_t iter, value_t r, value_t time = 0.0) {
    if (record_history_) res_.residual_history.push_back(r);
    probe_.iteration(iter, r, time);
  }

  /// Record boundary res.iterations with residual `r` and apply the
  /// rule there. True iterates on; on a verdict the solve is finished
  /// with it and the result is false.
  bool proceed(value_t r) {
    record(res_.iterations, r);
    const std::optional<SolverStatus> stop =
        rule_.verdict(res_.iterations, r);
    if (stop) finish(*stop, r);
    return !stop;
  }

  /// End the solve: set the result's status and final residual `r` and
  /// emit on_finish with res.iterations.
  void finish(SolverStatus status, value_t r, index_t block_commits = 0,
              index_t max_staleness = 0, value_t virtual_time = 0.0,
              index_t recovery_actions = 0) {
    res_.status = status;
    res_.final_residual = r;
    probe_.finish(status, res_.iterations, r, block_commits, max_staleness,
                  virtual_time, recovery_actions);
  }

 private:
  SolveResult& res_;
  StopRule rule_;
  bool record_history_;
  telemetry::SolveProbe probe_;
};

/// Relative l2 residual ||b - A x|| / ||b|| (absolute when ||b|| == 0).
[[nodiscard]] value_t relative_residual(const Csr& a,
                                        std::span<const value_t> b,
                                        std::span<const value_t> x);

}  // namespace bars
