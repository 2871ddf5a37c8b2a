#include "core/block_jacobi.hpp"

#include <memory>
#include <stdexcept>

#include "backend/registry.hpp"

namespace bars {

SolveResult block_jacobi_solve(const Csr& a, const Vector& b,
                               const BlockJacobiOptions& opts,
                               const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("block_jacobi_solve: dimension mismatch");
  }
  const RowPartition part = RowPartition::uniform(a.rows(), opts.block_size);
  const std::unique_ptr<backend::BlockSweepKernel> kernel_ptr =
      backend::build_kernel(
          opts.backend, a, b, part,
          {opts.local_iters, opts.local_sweep, opts.local_omega,
           opts.overlap},
          opts.solve.telemetry.metrics);
  const backend::BlockSweepKernel& kernel = *kernel_ptr;
  const index_t q = kernel.num_blocks();

  SolveResult res;
  res.x = x0 ? *x0 : Vector(b.size(), 0.0);

  SolveRecorder rec(res, opts.solve, "block-jacobi");
  rec.probe().start(a.rows(), a.nnz(), q);

  value_t rel = relative_residual(a, b, res.x);

  // Pre-extract halo spans once; values are re-gathered per iteration.
  Vector snapshot(res.x.size());
  Vector halo_vals;
  while (rec.proceed(rel)) {
    // Synchronous: all blocks read the same snapshot.
    snapshot = res.x;
    for (index_t blk = 0; blk < q; ++blk) {
      const auto halo = kernel.halo(blk);
      halo_vals.resize(halo.size());
      for (std::size_t i = 0; i < halo.size(); ++i) {
        halo_vals[i] = snapshot[halo[i]];
      }
      // The kernel seeds its local iterate from x's own rows; they are
      // still the snapshot values (blocks own disjoint rows).
      gpusim::ExecContext ctx;
      kernel.update(blk, halo_vals, res.x, ctx);
    }
    rel = relative_residual(a, b, res.x);
    ++res.iterations;
  }
  return res;
}

}  // namespace bars
