#include "core/silent_error.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "backend/registry.hpp"
#include "gpusim/async_executor.hpp"
#include "sparse/vector_ops.hpp"
#include "stats/rng.hpp"

namespace bars {

namespace {

/// Kernel decorator that injects one silent corruption into the shared
/// iterate after the trigger iteration. Single-threaded executor =>
/// mutable counters are safe.
class SdcKernel final : public gpusim::BlockKernel {
 public:
  SdcKernel(const gpusim::BlockKernel& inner, SilentErrorPlan plan)
      : inner_(inner), plan_(plan) {
    if (plan_.component >= inner.num_rows()) {
      throw std::invalid_argument("SilentErrorPlan: component out of range");
    }
    if (plan_.component < 0) {
      Rng rng(plan_.seed);
      plan_.component = rng.uniform_int(0, inner.num_rows() - 1);
    }
  }

  [[nodiscard]] index_t num_blocks() const override {
    return inner_.num_blocks();
  }
  [[nodiscard]] index_t num_rows() const override {
    return inner_.num_rows();
  }
  [[nodiscard]] std::span<const index_t> halo(index_t b) const override {
    return inner_.halo(b);
  }
  [[nodiscard]] std::pair<index_t, index_t> rows(index_t b) const override {
    return inner_.rows(b);
  }

  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x,
              const gpusim::ExecContext& ctx) const override {
    inner_.update(block, halo_values, x, ctx);
    ++updates_;
    if (!injected_ &&
        updates_ >= plan_.at * inner_.num_blocks()) {
      // The corruption lands in device memory unnoticed — any block's
      // store can be hit, so we do not wait for the owner.
      x[plan_.component] = plan_.magnitude;
      injected_ = true;
    }
  }

 private:
  const gpusim::BlockKernel& inner_;
  SilentErrorPlan plan_;
  mutable index_t updates_ = 0;
  mutable bool injected_ = false;
};

}  // namespace

resilience::AnomalyOptions to_anomaly_options(const DetectorOptions& opts) {
  resilience::AnomalyOptions a;
  a.jump_factor = opts.jump_factor;
  a.stall_window = opts.stall_window;
  a.stall_factor = opts.stall_factor;
  a.floor = opts.floor;
  a.warmup = opts.warmup;
  return a;
}

resilience::OnlineResidualDetector make_online_detector(
    const DetectorOptions& opts) {
  return resilience::OnlineResidualDetector(to_anomaly_options(opts));
}

SilentErrorReport detect_silent_error(const std::vector<value_t>& history,
                                      const DetectorOptions& opts) {
  SilentErrorReport rep;
  if (history.size() < 2) return rep;
  resilience::OnlineResidualDetector detector = make_online_detector(opts);
  for (value_t r : history) {
    if (const auto anomaly = detector.push(r)) {
      rep.detected = true;
      rep.at_iteration = anomaly->at_iteration;
      rep.jump_ratio = anomaly->jump_ratio;
      return rep;
    }
  }
  return rep;
}

SdcRunResult block_async_solve_with_sdc(
    const Csr& a, const Vector& b, const BlockAsyncOptions& opts,
    const std::optional<SilentErrorPlan>& sdc) {
  // Mirror block_async_solve but wrap the kernel with the injector.
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument(
        "block_async_solve_with_sdc: dimension mismatch");
  }
  const RowPartition part = RowPartition::uniform(a.rows(), opts.block_size);
  const std::unique_ptr<backend::BlockSweepKernel> base =
      backend::build_kernel(
          opts.backend, a, b, part,
          {opts.local_iters, opts.local_sweep, opts.local_omega,
           opts.overlap},
          opts.solve.telemetry.metrics);
  std::optional<SdcKernel> wrapped;
  const gpusim::BlockKernel* kernel = base.get();
  if (sdc) {
    wrapped.emplace(*base, *sdc);
    kernel = &*wrapped;
  }

  static const gpusim::CostModel kModel =
      gpusim::CostModel::calibrated_to_paper();
  const gpusim::MatrixShape shape{opts.matrix_name, a.rows(), a.nnz()};
  gpusim::ExecutorOptions exec;
  exec.stopping.max_global_iters = opts.solve.max_iters;
  exec.stopping.tol = opts.solve.tol;
  exec.stopping.divergence_limit = opts.solve.divergence_limit;
  exec.telemetry = opts.solve.telemetry;
  exec.concurrent_slots = opts.concurrent_slots;
  exec.global_iteration_time =
      kModel.gpu_block_async_iteration(shape, opts.local_iters);
  exec.jitter = opts.jitter;
  exec.seed = opts.seed;
  exec.scenario = opts.scenario;
  exec.resilience = opts.resilience;

  SdcRunResult out;
  out.solve.solve.x = Vector(b.size(), 0.0);
  gpusim::AsyncExecutor executor(*kernel, exec);
  gpusim::ExecutorResult r = executor.run(
      out.solve.solve.x,
      [&](const Vector& x) { return relative_residual(a, b, x); });

  out.solve.solve.status = r.status;
  out.solve.solve.iterations = r.global_iterations;
  out.solve.solve.final_residual = r.residual_history.back();
  out.solve.solve.residual_history = r.residual_history;
  out.solve.solve.time_history = std::move(r.time_history);
  out.solve.block_executions = std::move(r.block_executions);
  out.solve.resilience = std::move(r.resilience);
  out.report = detect_silent_error(out.solve.solve.residual_history);
  return out;
}

}  // namespace bars
