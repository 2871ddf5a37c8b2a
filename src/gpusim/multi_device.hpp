#pragma once

#include <functional>

#include <optional>

#include "common/solver_status.hpp"
#include "gpusim/block_kernel.hpp"
#include "gpusim/stopping.hpp"
#include "gpusim/topology.hpp"
#include "resilience/recovery.hpp"
#include "resilience/scenario.hpp"
#include "sparse/types.hpp"
#include "telemetry/options.hpp"

/// \file multi_device.hpp
/// Discrete-event simulator of the multi-GPU block-asynchronous
/// iteration (paper Sections 3.4 and 4.6). The block set is split
/// contiguously across devices; each device runs the single-GPU
/// asynchronous execution model on its own blocks, and the three
/// communication schemes differ in *when remote segments become
/// visible* and what per-sweep costs they put on which links:
///
///  - AMC: at each device-sweep end the device uploads its segment to
///    the host (own PCIe link, short stall), the host forwards it to the
///    other devices on their links. Cross-socket traffic pays a QPI
///    visibility latency.
///  - DC: at each sweep end the device pushes its segment to the master
///    GPU and pulls the canonical vector back before its next sweep; all
///    traffic serializes on the master's PCIe link, with a per-transfer
///    GPU-direct sync overhead.
///  - DK: a single canonical vector lives on the master; non-master
///    kernels read/write it remotely, inflating their execution time by
///    a penalty factor but making updates immediately visible.

namespace bars::gpusim {

struct MultiDeviceOptions {
  index_t num_devices = 1;
  TransferScheme scheme = TransferScheme::kAMC;
  TransferParams params{};

  /// Stopping knobs (max_global_iters / tol / divergence_limit); same
  /// consolidated struct the IterationMonitor consumes.
  StoppingCriteria stopping{};

  /// Observability hooks. Per-device block commits (device field set),
  /// device dropout/rejoin and link-retry recovery events, plus the
  /// monitor's iteration/recovery stream.
  telemetry::TelemetryOptions telemetry{};

  index_t slots_per_device = 14;
  /// Virtual seconds one device would need for all q blocks (the
  /// single-GPU global iteration time from the CostModel).
  value_t global_iteration_time = 1.0e-2;
  value_t jitter = 0.20;
  value_t straggler_prob = 0.05;
  value_t straggler_factor = 2.0;
  /// Bounded shift within each device (see AsyncExecutor).
  index_t max_generation_skew = 4;
  /// Halo read point within a block execution (see AsyncExecutor).
  value_t read_fraction = 0.5;
  /// Host staging synchronization per AMC sweep (stream sync).
  value_t amc_host_sync_overhead_s = 1.0e-3;
  std::uint64_t seed = 99;
  /// Base delay of the exponential backoff applied when a sweep-end
  /// transfer hits a failed link (doubles per consecutive failure).
  value_t link_retry_backoff_s = 1.0e-3;
  /// Fault timeline: component failures (the paper's Section 4.5
  /// scenario, also exercised on multi-GPU runs as an exascale-
  /// resilience extension), halo corruption, device dropout/rejoin,
  /// transfer-link failures.
  std::optional<resilience::FaultScenario> scenario{};
  /// Active recovery: checkpoint/rollback, online SDC detection,
  /// watchdog supervision. Unset = plain run (legacy behavior).
  std::optional<resilience::Policy> resilience{};
};

struct MultiDeviceResult {
  /// Why the run stopped (kRecoveredConverged when resilience rewrote
  /// the iterate on the way to convergence).
  SolverStatus status = SolverStatus::kMaxIterations;
  [[nodiscard]] bool ok() const { return succeeded(status); }
  index_t global_iterations = 0;
  value_t virtual_time = 0.0;
  std::vector<value_t> residual_history;
  std::vector<value_t> time_history;
  /// Bytes moved per scheme accounting (for conservation tests).
  value_t bytes_host_device = 0.0;
  value_t bytes_device_device = 0.0;
  index_t num_transfers = 0;
  /// Resilience activity (rollbacks, reassignments, link retries, ...).
  resilience::Report resilience;
};

/// Runs the kernel on `num_devices` simulated GPUs.
class MultiDeviceExecutor {
 public:
  MultiDeviceExecutor(const BlockKernel& kernel, MultiDeviceOptions opts);

  MultiDeviceResult run(
      Vector& x, const std::function<value_t(const Vector&)>& residual_fn);

 private:
  const BlockKernel& kernel_;
  MultiDeviceOptions opts_;
};

}  // namespace bars::gpusim
