#include "core/jacobi.hpp"

#include <stdexcept>

#include "sparse/vector_ops.hpp"

namespace bars {

namespace {

SolveResult jacobi_impl(const Csr& a, const Vector& b, value_t tau,
                        const SolveOptions& opts, const Vector* x0,
                        const char* name) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("jacobi_solve: dimension mismatch");
  }
  const Vector d = a.diagonal();
  for (value_t v : d) {
    if (v == 0.0) throw std::invalid_argument("jacobi_solve: zero diagonal");
  }
  const std::size_t n = b.size();
  SolveResult res;
  res.x = x0 ? *x0 : Vector(n, 0.0);
  const value_t nb = norm2(b);
  const value_t scale_den = nb > 0.0 ? nb : 1.0;

  SolveRecorder rec(res, opts, name);
  rec.probe().start(a.rows(), a.nnz());

  Vector r(n);
  a.residual(b, res.x, r);
  value_t rel = norm2(r) / scale_den;
  while (rec.proceed(rel)) {
    for (std::size_t i = 0; i < n; ++i) res.x[i] += tau * r[i] / d[i];
    a.residual(b, res.x, r);
    rel = norm2(r) / scale_den;
    ++res.iterations;
  }
  return res;
}

}  // namespace

SolveResult jacobi_solve(const Csr& a, const Vector& b,
                         const SolveOptions& opts, const Vector* x0) {
  return jacobi_impl(a, b, 1.0, opts, x0, "jacobi");
}

SolveResult scaled_jacobi_solve(const Csr& a, const Vector& b, value_t tau,
                                const SolveOptions& opts, const Vector* x0) {
  if (tau <= 0.0) {
    throw std::invalid_argument("scaled_jacobi_solve: tau must be > 0");
  }
  return jacobi_impl(a, b, tau, opts, x0, "scaled-jacobi");
}

}  // namespace bars
