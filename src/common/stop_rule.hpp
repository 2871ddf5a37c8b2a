#pragma once

#include <cmath>
#include <optional>

#include "common/cancel.hpp"
#include "common/solver_status.hpp"
#include "sparse/types.hpp"

/// \file stop_rule.hpp
/// The one stopping rule of every solver in the library. A solver asks
/// it for a verdict at boundary 0 (the starting iterate) and after every
/// iteration, so all of them stop the same way and count iterations the
/// same way — the premise of comparing async-(k) with Jacobi,
/// Gauss-Seidel and CG iteration for iteration (paper Figs. 6, 7, 9).

namespace bars {

struct StopRule {
  index_t max_iters = 1000;
  value_t tol = 1e-14;
  value_t divergence_limit = 1e30;
  /// Cooperative cancellation token, polled at each verdict. Null
  /// disables the check. The pointee must outlive the solve.
  const common::CancelToken* cancel = nullptr;

  /// The verdict at boundary `iter` on residual `r`, checked in one
  /// fixed order: kConverged when r <= tol, then kDiverged when r is
  /// not finite or above divergence_limit, then kAborted when the
  /// cancel token is tripped, then kMaxIterations when iter >=
  /// max_iters. No value means iterate on.
  [[nodiscard]] std::optional<SolverStatus> verdict(index_t iter,
                                                    value_t r) const noexcept {
    return verdict_at(tol, iter, r);
  }

  /// The verdict on an estimate of the residual that is trusted only
  /// while it stays `margin` times clear of tol: as verdict(), with
  /// kConverged meaning r <= tol * margin.
  [[nodiscard]] std::optional<SolverStatus> estimate_verdict(
      index_t iter, value_t r, value_t margin) const noexcept {
    return verdict_at(tol * margin, iter, r);
  }

  /// True once the cancel token is tripped. A solve in this state is
  /// abandoned: verdict() never continues it.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->requested();
  }

 private:
  [[nodiscard]] std::optional<SolverStatus> verdict_at(
      value_t converged_below, index_t iter, value_t r) const noexcept {
    // Written so that a NaN bound (tol 0 times the infinite margin of an
    // estimate that is exactly 0) still counts a number as within it.
    if (!std::isnan(r) && !(r > converged_below)) {
      return SolverStatus::kConverged;
    }
    if (!std::isfinite(r) || r > divergence_limit) {
      return SolverStatus::kDiverged;
    }
    if (cancelled()) return SolverStatus::kAborted;
    if (iter >= max_iters) return SolverStatus::kMaxIterations;
    return std::nullopt;
  }
};

}  // namespace bars
