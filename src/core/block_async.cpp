#include "core/block_async.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "backend/registry.hpp"
#include "sparse/vector_ops.hpp"

namespace bars {

std::vector<index_t> adaptive_local_iter_counts(const Csr& a,
                                                const RowPartition& partition,
                                                index_t max_k) {
  if (max_k <= 0) {
    throw std::invalid_argument(
        "adaptive_local_iter_counts: max_k must be > 0");
  }
  const index_t q = partition.num_blocks();
  std::vector<index_t> counts(static_cast<std::size_t>(q), 1);
  for (index_t bi = 0; bi < q; ++bi) {
    const RowBlock blk = partition.block(bi);
    value_t inblock = 0.0, total = 0.0;
    for (index_t i = blk.begin; i < blk.end; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] == i) continue;
        const value_t m = std::abs(vals[k]);
        total += m;
        if (cols[k] >= blk.begin && cols[k] < blk.end) inblock += m;
      }
    }
    const value_t f = total > 0.0 ? inblock / total : 0.0;
    counts[bi] = 1 + static_cast<index_t>(
                         std::llround(static_cast<double>(max_k - 1) * f));
  }
  return counts;
}

namespace {

/// Partitions `a` and builds the block-sweep kernel `opts` describes,
/// with the adaptive per-block sweep counts when requested.
std::unique_ptr<backend::BlockSweepKernel> build_block_kernel(
    const Csr& a, const Vector& b, const BlockAsyncOptions& opts) {
  const RowPartition part = RowPartition::uniform(a.rows(), opts.block_size);
  std::unique_ptr<backend::BlockSweepKernel> kernel = backend::build_kernel(
      opts.backend, a, b, part,
      {opts.local_iters, opts.local_sweep, opts.local_omega, opts.overlap},
      opts.solve.telemetry.metrics);
  if (opts.adaptive_local_iters) {
    kernel->set_per_block_iters(
        adaptive_local_iter_counts(a, part, opts.local_iters));
  }
  return kernel;
}

}  // namespace

BlockAsyncResult block_async_solve(const Csr& a, const Vector& b,
                                   const BlockAsyncOptions& opts,
                                   const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("block_async_solve: dimension mismatch");
  }
  if (opts.block_size <= 0) {
    throw std::invalid_argument("block_async_solve: block_size must be > 0");
  }

  const std::unique_ptr<backend::BlockSweepKernel> kernel =
      build_block_kernel(a, b, opts);
  return block_async_solve_with_kernel(a, b, *kernel, opts, x0);
}

BlockAsyncResult block_async_solve_with_kernel(const Csr& a, const Vector& b,
                                               backend::BlockSweepKernel& kernel,
                                               const BlockAsyncOptions& opts,
                                               const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("block_async_solve: dimension mismatch");
  }
  if (kernel.num_rows() != a.rows()) {
    throw std::invalid_argument(
        "block_async_solve_with_kernel: kernel built for a different size");
  }
  kernel.set_rhs(b);

  static const gpusim::CostModel kDefaultModel =
      gpusim::CostModel::calibrated_to_paper();
  const gpusim::CostModel& model =
      opts.cost_model ? *opts.cost_model : kDefaultModel;
  const gpusim::MatrixShape shape{opts.matrix_name, a.rows(), a.nnz()};
  return detail::run_block_kernel(
      kernel, a, b, opts, x0, "block-async",
      model.gpu_block_async_iteration(shape, opts.local_iters),
      [&](const Vector& x) { return relative_residual(a, b, x); });
}

namespace detail {

BlockAsyncResult run_block_kernel(
    const gpusim::BlockKernel& kernel, const Csr& a, const Vector& b,
    const BlockAsyncOptions& opts, const Vector* x0, const char* solver,
    value_t iteration_time,
    const std::function<value_t(const Vector&)>& residual) {
  gpusim::ExecutorOptions exec;
  exec.stopping = opts.solve.stop_rule();
  // The proxy divides by ||b||, as the monitored residual does.
  exec.rhs_norm = opts.exact_history ? 0.0 : norm2(b);
  exec.telemetry = opts.solve.telemetry;
  exec.num_devices = opts.num_devices;
  exec.scheme = opts.scheme;
  exec.transfer = opts.transfer;
  exec.concurrent_slots = opts.concurrent_slots;
  exec.global_iteration_time = iteration_time;
  exec.jitter = opts.jitter;
  exec.straggler_prob = opts.straggler_prob;
  exec.straggler_factor = opts.straggler_factor;
  // The multi-GPU model (Fig. 11) is calibrated with a per-device
  // bounded shift of 4; the single-device iteration keeps 2.
  const bool transfers = opts.scheme != gpusim::TransferScheme::kNone;
  exec.max_generation_skew = transfers ? 4 : 2;
  exec.policy = opts.policy;
  exec.seed = opts.seed;
  exec.pattern_seed = opts.pattern_seed;
  exec.run_noise = opts.run_noise;
  exec.scenario = opts.scenario;
  exec.resilience = opts.resilience;
  exec.num_workers = opts.num_workers;

  BlockAsyncResult out;
  out.solve.x = x0 ? *x0 : Vector(b.size(), 0.0);

  SolveRecorder rec(out.solve, opts.solve, solver);
  // SolveStartEvent::num_workers counts devices on a device layout.
  rec.probe().start(a.rows(), a.nnz(), kernel.num_blocks(),
                    transfers ? opts.num_devices : opts.num_workers,
                    telemetry::TimeDomain::kVirtual);

  gpusim::AsyncExecutor executor(kernel, exec);
  gpusim::ExecutorResult r = executor.run(out.solve.x, residual);

  out.solve.iterations = r.global_iterations;
  const value_t final_residual = r.residual_history.back();
  if (opts.solve.record_history) {
    out.solve.residual_history = std::move(r.residual_history);
    out.solve.time_history = std::move(r.time_history);
  }
  out.block_executions = std::move(r.block_executions);
  out.max_staleness = r.max_staleness;
  out.resilience = std::move(r.resilience);
  out.virtual_time = r.virtual_time;
  out.bytes_host_device = r.bytes_host_device;
  out.bytes_device_device = r.bytes_device_device;
  out.num_transfers = r.num_transfers;

  index_t commits = 0;
  for (index_t c : out.block_executions) commits += c;
  rec.finish(r.status, final_residual, commits, out.max_staleness,
             r.virtual_time,
             out.resilience.rollbacks + out.resilience.damped_restarts);
  return out;
}

}  // namespace detail

std::vector<BlockAsyncResult> block_async_solve_multi(
    const Csr& a, std::span<const Vector> bs, const BlockAsyncOptions& opts,
    const Vector* x0) {
  if (bs.empty()) {
    throw std::invalid_argument("block_async_solve_multi: no right-hand sides");
  }
  if (a.rows() != a.cols() ||
      static_cast<index_t>(bs.front().size()) != a.rows()) {
    throw std::invalid_argument("block_async_solve_multi: dimension mismatch");
  }
  if (opts.block_size <= 0) {
    throw std::invalid_argument(
        "block_async_solve_multi: block_size must be > 0");
  }

  // The expensive part — partition + per-block analysis — happens once;
  // each RHS then replays the same (value-independent, seeded) executor
  // schedule, so every result is bit-identical to its standalone solve.
  const std::unique_ptr<backend::BlockSweepKernel> kernel =
      build_block_kernel(a, bs.front(), opts);

  std::vector<BlockAsyncResult> out;
  out.reserve(bs.size());
  for (const Vector& b : bs) {
    out.push_back(block_async_solve_with_kernel(a, b, *kernel, opts, x0));
  }
  return out;
}

}  // namespace bars
