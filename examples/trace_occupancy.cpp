/// Inspect the simulated device: run async-(5) with tracing enabled and
/// print the multiprocessor occupancy, the per-block execution balance,
/// and the staleness histogram — the empirical face of the
/// Chazan-Miranker conditions (paper Section 2.2).
///
///   build/examples/trace_occupancy

#include <iostream>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "matrices/generators.hpp"

int main() {
  using namespace bars;

  const Csr a = trefethen(2000);
  const Vector b(2000, 1.0);
  const BlockJacobiKernel kernel(a, b, RowPartition::uniform(2000, 128), 5);

  gpusim::ExecutorOptions o;
  o.stopping.max_iters = 40;
  o.stopping.tol = 1e-12;
  o.record_trace = true;
  o.concurrent_slots = 14;
  gpusim::AsyncExecutor ex(kernel, o);
  Vector x(2000, 0.0);
  const auto r =
      ex.run(x, [&](const Vector& v) { return relative_residual(a, b, v); });

  std::cout << "blocks: " << kernel.num_blocks() << ", slots: 14\n"
            << "global iterations: " << r.global_iterations
            << (r.ok() ? " (converged)" : "") << '\n'
            << "virtual makespan: " << r.trace.makespan() << " s\n"
            << "average concurrency: " << r.trace.average_concurrency()
            << " blocks in flight\n"
            << "occupancy: " << 100.0 * r.trace.occupancy(14) << " %\n";

  index_t mn = r.block_executions.front(), mx = mn;
  for (index_t c : r.block_executions) {
    mn = std::min(mn, c);
    mx = std::max(mx, c);
  }
  std::cout << "block executions: min " << mn << ", max " << mx
            << "  (condition 1: every block updated continually)\n";

  std::cout << "staleness histogram (|generation gap| of overlapping "
               "executions):\n";
  const auto hist = r.trace.staleness_histogram();
  index_t total = 0;
  for (index_t h : hist) total += h;
  for (std::size_t gap = 0; gap < hist.size(); ++gap) {
    std::cout << "  gap " << gap << ": "
              << 100.0 * static_cast<double>(hist[gap]) /
                     static_cast<double>(total)
              << " %\n";
  }
  std::cout << "(condition 2: the shift is bounded — no unbounded tail)\n";
  return 0;
}
