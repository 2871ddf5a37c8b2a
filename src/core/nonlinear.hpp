#pragma once

#include <functional>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"

/// \file nonlinear.hpp
/// Block-asynchronous two-stage iteration for *mildly nonlinear*
/// systems A x + phi(x) = b with a diagonal nonlinearity — the setting
/// of Bai, Migallon, Penades & Szyld (the paper's reference [5], which
/// inspired the local-iteration idea of async-(k)). Each block visit
/// freezes the off-block part and runs `local_iters` damped
/// Newton-Jacobi sweeps on the local nonlinear sub-system:
///   x_i <- x_i + (b_i - sum_j a_ij x_j - phi_i(x_i)) /
///               (a_ii + phi_i'(x_i)).

namespace bars {

/// Component-wise nonlinearity: value and derivative of phi_i at x_i.
/// Must be smooth and monotone non-decreasing (phi' >= 0) for the
/// convergence theory to apply.
struct DiagonalNonlinearity {
  std::function<value_t(index_t i, value_t xi)> value;
  std::function<value_t(index_t i, value_t xi)> derivative;
};

/// phi(x) = 0: reduces the nonlinear solver to the linear one.
[[nodiscard]] DiagonalNonlinearity zero_nonlinearity();

/// phi_i(x) = c * x^3 (odd, monotone — a classic mildly nonlinear
/// reaction term).
[[nodiscard]] DiagonalNonlinearity cubic_nonlinearity(value_t c);

/// phi_i(x) = c * (exp(x) - 1) (Bratu-like, monotone for c >= 0).
[[nodiscard]] DiagonalNonlinearity exponential_nonlinearity(value_t c);

struct NonlinearAsyncOptions {
  SolveOptions solve{};
  index_t block_size = 256;
  index_t local_iters = 3;
  /// Damping of the local Newton-Jacobi updates in (0, 1].
  value_t damping = 1.0;
  gpusim::SchedulePolicy policy = gpusim::SchedulePolicy::kJittered;
  index_t concurrent_slots = 14;
  value_t jitter = 0.20;
  std::uint64_t seed = 99;
};

struct NonlinearAsyncResult {
  SolveResult solve;  ///< residual = ||b - A x - phi(x)|| / ||b||
  std::vector<index_t> block_executions;
};

/// Solve A x + phi(x) = b by block-asynchronous two-stage iteration on
/// the simulated device. Requires a positive diagonal and phi' >= 0
/// along the iterates (checked: throws std::domain_error when the local
/// Jacobian a_ii + phi_i' becomes non-positive).
[[nodiscard]] NonlinearAsyncResult nonlinear_block_async_solve(
    const Csr& a, const Vector& b, const DiagonalNonlinearity& phi,
    const NonlinearAsyncOptions& opts = {}, const Vector* x0 = nullptr);

/// Reference synchronous damped Newton-Jacobi iteration for the same
/// system (baseline / oracle for tests).
[[nodiscard]] SolveResult nonlinear_jacobi_solve(
    const Csr& a, const Vector& b, const DiagonalNonlinearity& phi,
    const SolveOptions& opts = {}, value_t damping = 1.0,
    const Vector* x0 = nullptr);

}  // namespace bars
