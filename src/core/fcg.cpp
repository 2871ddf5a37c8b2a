#include "core/fcg.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/block_async.hpp"
#include "sparse/vector_ops.hpp"

namespace bars {

SolveResult fcg_solve(const Csr& a, const Vector& b, const FcgOptions& opts,
                      const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("fcg_solve: dimension mismatch");
  }
  if (!opts.preconditioner) {
    throw std::invalid_argument("fcg_solve: preconditioner required");
  }
  const std::size_t n = b.size();
  SolveResult res;
  res.x = x0 ? *x0 : Vector(n, 0.0);
  const value_t nb = norm2(b);
  const value_t den = nb > 0.0 ? nb : 1.0;

  Vector r(n), r_prev(n), z(n), p(n), ap(n), diff(n);
  a.residual(b, res.x, r);
  opts.preconditioner(a, r, z);
  p = z;
  SolveRecorder rec(res, opts.solve, "fcg");
  rec.probe().start(a.rows(), a.nnz());

  value_t zr = dot(z, r);
  value_t rel = norm2(r) / den;
  while (rec.proceed(rel)) {
    a.spmv(p, ap);
    const value_t pap = dot(p, ap);
    if (pap <= 0.0) {
      rec.finish(SolverStatus::kDiverged, rel);
      break;
    }
    const value_t alpha = zr / pap;
    axpy(alpha, p, res.x);
    r_prev = r;
    axpy(-alpha, ap, r);
    opts.preconditioner(a, r, z);
    // Polak-Ribiere: robust when the preconditioner varies per step.
    subtract(r, r_prev, diff);
    const value_t zr_next = dot(z, r);
    const value_t beta = zr > 0.0 ? dot(z, diff) / zr : 0.0;
    xpby(z, std::max(beta, value_t{0.0}), p);
    zr = zr_next;
    if (zr <= 0.0) {
      // Preconditioner lost positive definiteness on this application;
      // restart the search direction from the preconditioned residual.
      p = z;
      zr = dot(z, r);
      if (zr <= 0.0) {
        rec.finish(SolverStatus::kDiverged, rel);
        break;
      }
    }
    rel = norm2(r) / den;
    ++res.iterations;
  }
  return res;
}

Preconditioner identity_preconditioner() {
  return [](const Csr&, const Vector& r, Vector& z) { z = r; };
}

Preconditioner jacobi_preconditioner() {
  return [](const Csr& a, const Vector& r, Vector& z) {
    const Vector d = a.diagonal();
    z.resize(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (d[i] == 0.0) {
        throw std::invalid_argument("jacobi_preconditioner: zero diagonal");
      }
      z[i] = r[i] / d[i];
    }
  };
}

Preconditioner block_async_preconditioner(index_t global_sweeps,
                                          index_t block_size,
                                          index_t local_iters,
                                          std::uint64_t seed) {
  // The counter makes successive applications distinct schedules —
  // exactly the "varying operator" scenario FCG exists for.
  auto counter = std::make_shared<std::uint64_t>(0);
  return [=](const Csr& a, const Vector& r, Vector& z) {
    BlockAsyncOptions o;
    o.block_size = block_size;
    o.local_iters = local_iters;
    o.seed = seed + (*counter)++;
    o.solve.max_iters = global_sweeps;
    o.solve.tol = 0.0;
    o.solve.record_history = false;
    const BlockAsyncResult res = block_async_solve(a, r, o);
    z = res.solve.x;
  };
}

}  // namespace bars
