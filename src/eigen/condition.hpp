#pragma once

#include "eigen/lanczos.hpp"
#include "sparse/csr.hpp"

/// \file condition.hpp
/// Condition-number estimation for SPD matrices, reproducing the
/// cond(A) and cond(D^{-1}A) columns of the paper's Table 1, plus the
/// optimal Jacobi damping tau = 2 / (lambda_1 + lambda_n) that
/// Section 4.2 prescribes for rho(B) > 1 systems.

namespace bars {

struct ConditionEstimate {
  value_t lambda_min = 0.0;
  value_t lambda_max = 0.0;
  value_t condition = 0.0;  ///< lambda_max / lambda_min
  bool converged = false;
};

struct ConditionOptions {
  LanczosOptions lanczos{};
  index_t inverse_iters = 10;     ///< inverse-iteration refinements
  index_t cg_max_iters = 20000;   ///< inner CG cap per inverse step
  value_t cg_tol = 1e-10;         ///< inner CG relative residual
};

/// 2-norm condition number of an SPD matrix: lambda_max via Lanczos,
/// lambda_min via Lanczos then refined with inverse power iteration
/// (inner solves by unpreconditioned CG).
[[nodiscard]] ConditionEstimate spd_condition_number(
    const Csr& a, const ConditionOptions& opts = {});

/// Symmetrically scaled matrix D^{-1/2} A D^{-1/2} (similar to D^{-1}A)
/// so SPD machinery applies to the Jacobi-preconditioned spectrum.
/// Requires a positive diagonal.
[[nodiscard]] Csr symmetric_diagonal_scaling(const Csr& a);

/// cond(D^{-1}A) computed on the symmetric scaling.
[[nodiscard]] ConditionEstimate jacobi_scaled_condition_number(
    const Csr& a, const ConditionOptions& opts = {});

/// tau = 2 / (lambda_1 + lambda_n) of D^{-1}A — the damping factor the
/// paper suggests to restore convergence when rho(B) > 1 (Section 4.2).
/// Throws std::invalid_argument for an empty matrix, which has no
/// spectrum.
[[nodiscard]] value_t optimal_jacobi_tau(const Csr& a,
                                         const ConditionOptions& opts = {});

}  // namespace bars
