#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>

#include "backend/kernel_backend.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "gpusim/cost_model.hpp"

/// \file block_async.hpp
/// The paper's primary contribution: async-(local_iters) — the
/// block-asynchronous relaxation method of Section 3.3, executed on the
/// simulated GPU (gpusim::AsyncExecutor) with virtual-time bookkeeping.
/// The same front-end runs the multi-GPU iteration of Sections 3.4 and
/// 4.6 (num_devices + a transfer scheme) and, through a FaultScenario,
/// every injected fault including silent iterate corruption.

namespace bars {

struct BlockAsyncOptions {
  SolveOptions solve{};

  /// Rows per thread block ("subdomain"). The paper uses 448 for the
  /// production runs (Section 3.2) and 128 for the variation study.
  index_t block_size = 448;
  /// Local Jacobi sweeps per block visit: the k of async-(k).
  index_t local_iters = 1;
  LocalSweep local_sweep = LocalSweep::kJacobi;
  /// Local relaxation weight (1.0 = plain Jacobi; extension).
  value_t local_omega = 1.0;
  /// Subdomain overlap rows (restricted additive Schwarz; extension).
  index_t overlap = 0;
  /// Adaptive per-block sweep counts (extension; the paper's Section 5
  /// names the optimal local-iteration count an open tuning question):
  /// block b performs 1 + round((local_iters - 1) * f_b) sweeps, where
  /// f_b is the fraction of its off-diagonal mass that lies inside the
  /// block — blocks with diagonal local structure (where sweeps cannot
  /// help, cf. Chem97ZtZ) automatically drop to one sweep.
  bool adaptive_local_iters = false;

  /// Compute backend building the block-sweep kernel (see
  /// backend/registry.hpp and docs/BACKENDS.md): "scalar", "simd", or
  /// "auto". A backend that cannot run here or cannot express the
  /// configuration degrades to "scalar" (counted on
  /// solve.telemetry.metrics when attached). The default stays "scalar"
  /// so seeded runs remain bit-identical across machines; opt into
  /// "simd"/"auto" where the documented FP tolerance is acceptable.
  std::string backend = "scalar";

  gpusim::SchedulePolicy policy = gpusim::SchedulePolicy::kJittered;
  /// Multiprocessors per device (C2070: 14).
  index_t concurrent_slots = 14;
  value_t jitter = 0.20;
  value_t straggler_prob = 0.05;
  value_t straggler_factor = 2.0;
  std::uint64_t seed = 99;
  /// Recurring-pattern scheduling (see gpusim::ExecutorOptions).
  std::optional<std::uint64_t> pattern_seed{};
  value_t run_noise = 2.0e-3;

  /// Device layout (paper Sections 3.4 and 4.6): the blocks are split
  /// contiguously across 1..8 simulated GPUs, and more than one device
  /// needs a transfer scheme (AMC / DC / DK). kNone is the single-GPU
  /// iteration. The bounded shift is derived, not set: a block may run
  /// 4 generations ahead of its device's slowest block under a transfer
  /// scheme (the Fig. 11 calibration) and 2 under kNone.
  index_t num_devices = 1;
  gpusim::TransferScheme scheme = gpusim::TransferScheme::kNone;
  gpusim::TransferParams transfer{};

  /// Fault timeline (resilience subsystem): the paper's Section 4.5
  /// failure (FaultScenario::fail_components), multiple failure waves,
  /// transient halo corruption, silent iterate corruption
  /// (FaultScenario::corrupt_iterate), device dropout, link failures.
  std::optional<resilience::FaultScenario> scenario{};
  /// Active recovery: checkpoint/rollback, online SDC detection,
  /// watchdog supervision (see docs/RESILIENCE.md).
  std::optional<resilience::Policy> resilience{};

  /// > 1 runs same-virtual-time block commits concurrently on a worker
  /// pool (bit-identical results; see gpusim::ExecutorOptions). 0 or 1
  /// keeps the serial event loop.
  index_t num_workers = 0;

  /// Evaluate the exact relative residual at every global iteration,
  /// so solve.residual_history holds exact values throughout (the
  /// per-iteration figure harnesses set this). Off, a plain
  /// single-device run monitors a residual proxy summed from the
  /// kernel's per-block residuals and evaluates the exact residual only
  /// once the proxy nears tol: the iterate, iteration count, status and
  /// final_residual are the same, but history entries before that
  /// point are proxies (see docs/MODEL.md, "Stopping").
  bool exact_history = false;

  /// Matrix name for the cost model's calibration lookup; empty uses
  /// the generic formula.
  std::string matrix_name;
  /// Cost model supplying the virtual global-iteration time. When null
  /// the paper-calibrated model is used.
  const gpusim::CostModel* cost_model = nullptr;
};

/// Extended result: SolveResult plus executor diagnostics.
struct BlockAsyncResult {
  SolveResult solve;
  /// Completed executions per block (Chazan-Miranker condition 1).
  std::vector<index_t> block_executions;
  /// Max generation lag observed between reader and halo source.
  index_t max_staleness = 0;
  /// Resilience activity (all-zero for plain runs).
  resilience::Report resilience;
  /// Simulated seconds at stop: the time-to-convergence of Fig. 11.
  value_t virtual_time = 0.0;
  /// Transfer-scheme traffic (zero under kNone).
  value_t bytes_host_device = 0.0;
  value_t bytes_device_device = 0.0;
  index_t num_transfers = 0;
};

/// Solve A x = b with async-(local_iters). Residual history entries are
/// per *global* iteration (every component updated local_iters times),
/// matching the paper's counting convention (Section 4.3).
[[nodiscard]] BlockAsyncResult block_async_solve(
    const Csr& a, const Vector& b, const BlockAsyncOptions& opts = {},
    const Vector* x0 = nullptr);

/// Solve A x = b reusing a prebuilt kernel (the expensive per-matrix
/// analysis: partition, halo lists, local/global splits, diagonal
/// factors, sized scratch). The kernel is repointed at `b` via
/// set_rhs() and must have been built from `a` with the same partition
/// and sweep configuration that `opts` describes — then the run is
/// bit-identical to block_async_solve(a, b, opts, x0), because the
/// executor schedule depends only on options and seed, never on values.
/// This is the amortization point the service layer's plan cache rides
/// on (see docs/SERVICE.md). Any backend's kernel works: the executor
/// consumes it through the BlockSweepKernel seam.
[[nodiscard]] BlockAsyncResult block_async_solve_with_kernel(
    const Csr& a, const Vector& b, backend::BlockSweepKernel& kernel,
    const BlockAsyncOptions& opts = {}, const Vector* x0 = nullptr);

namespace detail {

/// The one executor path behind the block-asynchronous front-ends
/// (block_async_solve_with_kernel, nonlinear_block_async_solve). Maps
/// `opts` onto gpusim::ExecutorOptions, runs `kernel` from x0 (zero
/// when null) with `residual` as the monitored residual, and maps the
/// executor's result, bracketing the run with the start and finish
/// events of solver `solver`. `iteration_time` is the virtual seconds
/// of one global iteration; unless opts.exact_history is set, the
/// residual proxy divides by ||b||, so `residual` must too.
[[nodiscard]] BlockAsyncResult run_block_kernel(
    const gpusim::BlockKernel& kernel, const Csr& a, const Vector& b,
    const BlockAsyncOptions& opts, const Vector* x0, const char* solver,
    value_t iteration_time,
    const std::function<value_t(const Vector&)>& residual);

}  // namespace detail

/// Batched multi-RHS solve: one kernel build amortized over every
/// right-hand side in `bs`. Each RHS runs the full executor schedule
/// independently (same options, same seed), so result k is
/// bit-identical to block_async_solve(a, bs[k], opts, x0) — asserted by
/// tests/service/test_service_batching.cpp. Throws on empty `bs`.
[[nodiscard]] std::vector<BlockAsyncResult> block_async_solve_multi(
    const Csr& a, std::span<const Vector> bs,
    const BlockAsyncOptions& opts = {}, const Vector* x0 = nullptr);

/// The adaptive sweep-count heuristic used by
/// BlockAsyncOptions::adaptive_local_iters, exposed for inspection:
/// k_b = 1 + round((max_k - 1) * in-block off-diagonal mass fraction).
[[nodiscard]] std::vector<index_t> adaptive_local_iter_counts(
    const Csr& a, const RowPartition& partition, index_t max_k);

}  // namespace bars
