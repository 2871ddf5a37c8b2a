#include "eigen/condition.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sparse/vector_ops.hpp"
#include "stats/rng.hpp"

namespace bars {

namespace {

/// Minimal unpreconditioned CG used only inside inverse iteration.
/// (The instrumented user-facing CG lives in core/cg.hpp; this copy
/// keeps the eigen module independent of the solver layer.)
bool inner_cg(const Csr& a, std::span<const value_t> b, std::span<value_t> x,
              index_t max_iters, value_t tol) {
  const std::size_t n = b.size();
  Vector r(n), p(n), ap(n);
  a.residual(b, x, r);
  p.assign(r.begin(), r.end());
  value_t rr = dot(r, r);
  const value_t target = tol * tol * dot(b, b);
  for (index_t it = 0; it < max_iters; ++it) {
    if (rr <= target) return true;
    a.spmv(p, ap);
    const value_t pap = dot(p, ap);
    if (pap <= 0.0) return false;  // not SPD (or breakdown)
    const value_t alpha = rr / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const value_t rr_next = dot(r, r);
    xpby(r, rr_next / rr, p);
    rr = rr_next;
  }
  return rr <= target;
}

/// One Rayleigh quotient x^T A x / x^T x.
value_t rayleigh(const Csr& a, const Vector& x) {
  Vector ax(x.size());
  a.spmv(x, ax);
  return dot(x, ax) / dot(x, x);
}

}  // namespace

ConditionEstimate spd_condition_number(const Csr& a,
                                       const ConditionOptions& opts) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("spd_condition_number: not square");
  }
  ConditionEstimate out;
  const LanczosResult lz = lanczos_extremal(a, opts.lanczos);
  out.lambda_max = lz.lambda_max;
  out.lambda_min = lz.lambda_min;
  out.converged = lz.converged;

  // Refine lambda_min by inverse power iteration: Lanczos systematically
  // overestimates the smallest eigenvalue of ill-conditioned matrices.
  Rng rng(opts.lanczos.seed + 1);
  Vector x(static_cast<std::size_t>(a.rows()));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  scale(1.0 / norm2(x), x);
  value_t prev = out.lambda_min;
  for (index_t it = 0; it < opts.inverse_iters; ++it) {
    Vector y(x.size(), 0.0);
    if (!inner_cg(a, x, y, opts.cg_max_iters, opts.cg_tol)) break;
    const value_t ny = norm2(y);
    if (ny == 0.0) break;
    scale(1.0 / ny, y);
    x = std::move(y);
    const value_t mu = rayleigh(a, x);
    if (std::abs(mu - prev) <= 1e-8 * std::abs(mu)) {
      prev = mu;
      break;
    }
    prev = mu;
  }
  if (prev > 0.0) out.lambda_min = std::min(out.lambda_min, prev);
  out.condition = out.lambda_min > 0.0
                      ? out.lambda_max / out.lambda_min
                      : std::numeric_limits<value_t>::infinity();
  return out;
}

Csr symmetric_diagonal_scaling(const Csr& a) {
  const Vector d = a.diagonal();
  for (auto v : d) {
    if (v <= 0.0) {
      throw std::invalid_argument(
          "symmetric_diagonal_scaling: non-positive diagonal");
    }
  }
  Coo coo(a.rows(), a.cols());
  coo.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(i, cols[k],
              vals[k] / std::sqrt(d[i] * d[cols[k]]));
    }
  }
  return Csr::from_coo(coo);
}

ConditionEstimate jacobi_scaled_condition_number(const Csr& a,
                                                 const ConditionOptions& opts) {
  return spd_condition_number(symmetric_diagonal_scaling(a), opts);
}

value_t optimal_jacobi_tau(const Csr& a, const ConditionOptions& opts) {
  if (a.rows() == 0) {
    throw std::invalid_argument("optimal_jacobi_tau: empty matrix");
  }
  const ConditionEstimate est = jacobi_scaled_condition_number(a, opts);
  const value_t sum = est.lambda_min + est.lambda_max;
  if (sum <= 0.0) {
    throw std::runtime_error("optimal_jacobi_tau: non-positive spectrum");
  }
  return 2.0 / sum;
}

}  // namespace bars
