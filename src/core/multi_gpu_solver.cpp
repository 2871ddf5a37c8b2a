#include "core/multi_gpu_solver.hpp"

#include <memory>
#include <stdexcept>

#include "backend/registry.hpp"
#include "sparse/vector_ops.hpp"
#include "telemetry/probe.hpp"

namespace bars {

MultiGpuResult multi_gpu_block_async_solve(const Csr& a, const Vector& b,
                                           const MultiGpuOptions& opts,
                                           const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument(
        "multi_gpu_block_async_solve: dimension mismatch");
  }
  const RowPartition part = RowPartition::uniform(a.rows(), opts.block_size);
  const std::unique_ptr<backend::BlockSweepKernel> kernel_ptr =
      backend::build_kernel(opts.backend, a, b, part,
                            {opts.local_iters, opts.local_sweep},
                            opts.solve.telemetry.metrics);
  const backend::BlockSweepKernel& kernel = *kernel_ptr;

  static const gpusim::CostModel kDefaultModel =
      gpusim::CostModel::calibrated_to_paper();
  const gpusim::CostModel& model =
      opts.cost_model ? *opts.cost_model : kDefaultModel;
  const gpusim::MatrixShape shape{opts.matrix_name, a.rows(), a.nnz()};

  gpusim::ExecutorOptions exec;
  exec.num_devices = opts.num_devices;
  exec.scheme = opts.scheme;
  exec.transfer = opts.transfer;
  exec.stopping.max_global_iters = opts.solve.max_iters;
  exec.stopping.tol = opts.solve.tol;
  exec.stopping.divergence_limit = opts.solve.divergence_limit;
  exec.stopping.cancel = opts.solve.cancel;
  exec.telemetry = opts.solve.telemetry;
  exec.concurrent_slots = opts.slots_per_device;
  exec.global_iteration_time =
      model.gpu_block_async_iteration(shape, opts.local_iters);
  exec.jitter = opts.jitter;
  exec.straggler_prob = opts.straggler_prob;
  exec.straggler_factor = opts.straggler_factor;
  // The multi-GPU model (Fig. 11) is calibrated with a per-device
  // bounded shift of 4, not the single-device default of 2.
  exec.max_generation_skew = 4;
  exec.seed = opts.seed;
  exec.scenario = opts.scenario;
  exec.resilience = opts.resilience;

  MultiGpuResult out;
  out.solve.x = x0 ? *x0 : Vector(b.size(), 0.0);

  telemetry::SolveProbe probe(opts.solve.telemetry, "multi-gpu-block-async");
  probe.start(a.rows(), a.nnz(), part.num_blocks(), opts.num_devices,
              telemetry::TimeDomain::kVirtual);

  gpusim::AsyncExecutor executor(kernel, exec);
  const auto residual_fn = [&](const Vector& x) {
    return relative_residual(a, b, x);
  };
  gpusim::ExecutorResult r = executor.run(out.solve.x, residual_fn);

  out.solve.status = r.status;
  out.solve.iterations = r.global_iterations;
  out.solve.final_residual = r.residual_history.back();
  if (opts.solve.record_history) {
    out.solve.residual_history = std::move(r.residual_history);
    out.solve.time_history = std::move(r.time_history);
  }
  out.bytes_host_device = r.bytes_host_device;
  out.bytes_device_device = r.bytes_device_device;
  out.num_transfers = r.num_transfers;
  out.time_to_convergence = r.virtual_time;
  out.resilience = std::move(r.resilience);
  index_t commits = 0;
  for (index_t c : r.block_executions) commits += c;
  probe.finish(out.solve.status, out.solve.iterations,
               out.solve.final_residual, commits, r.max_staleness,
               r.virtual_time,
               out.resilience.rollbacks + out.resilience.damped_restarts);
  return out;
}

}  // namespace bars
