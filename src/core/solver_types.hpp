#pragma once

#include <vector>

#include "common/cancel.hpp"
#include "common/solver_status.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"
#include "telemetry/options.hpp"

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

/// Relative l2 residual ||b - A x|| / ||b|| (absolute when ||b|| == 0).
[[nodiscard]] value_t relative_residual(const Csr& a,
                                        std::span<const value_t> b,
                                        std::span<const value_t> x);

}  // namespace bars
