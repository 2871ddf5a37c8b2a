#include "core/gauss_seidel.hpp"

#include <stdexcept>

namespace bars {

namespace {

void sweep(const Csr& a, const Vector& b, Vector& x, const Vector& d,
           value_t omega, bool forward) {
  const index_t n = a.rows();
  for (index_t step = 0; step < n; ++step) {
    const index_t i = forward ? step : n - 1 - step;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    value_t s = b[i];
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] != i) s -= vals[k] * x[cols[k]];
    }
    const value_t gs = s / d[i];
    x[i] = (1.0 - omega) * x[i] + omega * gs;
  }
}

}  // namespace

SolveResult sor_solve(const Csr& a, const Vector& b, value_t omega,
                      const SolveOptions& opts, SweepDirection dir,
                      const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("sor_solve: dimension mismatch");
  }
  if (omega <= 0.0 || omega >= 2.0) {
    throw std::invalid_argument("sor_solve: omega must lie in (0, 2)");
  }
  const Vector d = a.diagonal();
  for (value_t v : d) {
    if (v == 0.0) throw std::invalid_argument("sor_solve: zero diagonal");
  }
  const std::size_t n = b.size();
  SolveResult res;
  res.x = x0 ? *x0 : Vector(n, 0.0);

  SolveRecorder rec(
      res, opts,
      omega == 1.0
          ? (dir == SweepDirection::kSymmetric ? "symmetric-gauss-seidel"
                                               : "gauss-seidel")
          : "sor");
  rec.probe().start(a.rows(), a.nnz());

  value_t rel = relative_residual(a, b, res.x);
  while (rec.proceed(rel)) {
    switch (dir) {
      case SweepDirection::kForward:
        sweep(a, b, res.x, d, omega, /*forward=*/true);
        break;
      case SweepDirection::kBackward:
        sweep(a, b, res.x, d, omega, /*forward=*/false);
        break;
      case SweepDirection::kSymmetric:
        sweep(a, b, res.x, d, omega, /*forward=*/true);
        sweep(a, b, res.x, d, omega, /*forward=*/false);
        break;
    }
    rel = relative_residual(a, b, res.x);
    ++res.iterations;
  }
  return res;
}

SolveResult gauss_seidel_solve(const Csr& a, const Vector& b,
                               const SolveOptions& opts, SweepDirection dir,
                               const Vector* x0) {
  return sor_solve(a, b, 1.0, opts, dir, x0);
}

}  // namespace bars
