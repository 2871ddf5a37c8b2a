#include "core/cg.hpp"

#include <stdexcept>

#include "sparse/vector_ops.hpp"

namespace bars {

SolveResult cg_solve(const Csr& a, const Vector& b, const CgOptions& opts,
                     const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("cg_solve: dimension mismatch");
  }
  const std::size_t n = b.size();
  SolveResult res;
  res.x = x0 ? *x0 : Vector(n, 0.0);
  const value_t nb = norm2(b);
  const value_t den = nb > 0.0 ? nb : 1.0;

  Vector d;
  if (opts.jacobi_preconditioner) {
    d = a.diagonal();
    for (value_t v : d) {
      if (v <= 0.0) {
        throw std::invalid_argument(
            "cg_solve: Jacobi preconditioner needs a positive diagonal");
      }
    }
  }

  Vector r(n), z(n), p(n), ap(n);
  a.residual(b, res.x, r);
  const auto precondition = [&](const Vector& rin, Vector& zout) {
    if (opts.jacobi_preconditioner) {
      for (std::size_t i = 0; i < n; ++i) zout[i] = rin[i] / d[i];
    } else {
      zout = rin;
    }
  };
  precondition(r, z);
  p = z;
  SolveRecorder rec(res, opts.solve,
                    opts.jacobi_preconditioner ? "pcg-jacobi" : "cg");
  rec.probe().start(a.rows(), a.nnz());

  value_t rz = dot(r, z);
  value_t rel = norm2(r) / den;
  while (rec.proceed(rel)) {
    a.spmv(p, ap);
    const value_t pap = dot(p, ap);
    if (pap <= 0.0) {
      rec.finish(SolverStatus::kDiverged, rel);  // matrix not SPD along p
      break;
    }
    const value_t alpha = rz / pap;
    axpy(alpha, p, res.x);
    if (opts.recompute_every > 0 &&
        (res.iterations + 1) % opts.recompute_every == 0) {
      a.residual(b, res.x, r);
    } else {
      axpy(-alpha, ap, r);
    }
    precondition(r, z);
    const value_t rz_next = dot(r, z);
    xpby(z, rz_next / rz, p);
    rz = rz_next;
    rel = norm2(r) / den;
    ++res.iterations;
  }
  return res;
}

}  // namespace bars
