#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/solver_status.hpp"
#include "gpusim/block_kernel.hpp"
#include "gpusim/stopping.hpp"
#include "gpusim/topology.hpp"
#include "gpusim/trace.hpp"
#include "resilience/recovery.hpp"
#include "resilience/scenario.hpp"
#include "sparse/types.hpp"
#include "telemetry/options.hpp"

/// \file async_executor.hpp
/// Discrete-event simulator of the block-asynchronous iteration on one
/// GPU (paper Section 3.3) or on several (Sections 3.4 and 4.6).
///
/// Execution model: each device has `concurrent_slots` multiprocessors.
/// Ready blocks start in scheduler order as slots free up. A block
/// execution is split into a START event, a READ event (halo snapshot
/// at a point inside the execution) and a WRITE event (commit at
/// t + duration). Between a block's snapshot and its commit other
/// blocks commit — exactly the chaotic staleness of Chazan-Miranker
/// iterations, with the shift function realized by the seeded event
/// interleaving. Durations carry seeded jitter and occasional
/// stragglers, mimicking the non-deterministic GPU-internal scheduling
/// the paper studies in Section 4.1.
///
/// Device layout: with more than one device the block set is split
/// contiguously across them; each device runs the model above on its
/// own blocks, and the transfer scheme decides *when remote segments
/// become visible* and what each device-sweep costs on which links:
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
///  - none (the default): one device, no transfers; x is updated in
///    place.

namespace bars::gpusim {

class WorkerPool;

/// How the device orders ready blocks.
enum class SchedulePolicy {
  /// Fixed order 0..q-1, no jitter: deterministic reference execution.
  kRoundRobin,
  /// Seeded duration jitter + stragglers with FIFO re-queue (default;
  /// models the GPU's non-deterministic block scheduler).
  kJittered,
  /// Like kJittered, plus a fresh random block permutation each sweep.
  kShuffled,
};

struct ExecutorOptions {
  /// The stopping rule, applied to residual_fn(x) at boundary 0 and at
  /// every global-iteration boundary (residual_fn decides the norm and
  /// scaling; the paper uses the relative l2 residual). Solver
  /// front-ends pass SolveOptions::stop_rule().
  StopRule stopping{};
  /// ||b|| of the system the kernel relaxes. When > 0, a plain
  /// single-device run (no fault timeline, no resilience policy)
  /// monitors the residual proxy sqrt(sum_b ||r_b||^2) / rhs_norm built
  /// from the kernel's ExecContext::residual_sq slots, and calls
  /// residual_fn only once the proxy nears tol (see IterationMonitor).
  /// It must then be the norm residual_fn divides by. 0 (the default)
  /// calls residual_fn at every boundary.
  value_t rhs_norm = 0.0;

  /// Observability hooks. The executor emits on_block_commit (gated by
  /// telemetry.block_commits) and feeds on_iteration /
  /// on_recovery_event through the IterationMonitor; solver front-ends
  /// emit on_start / on_finish. Disabled (null observer) costs one
  /// branch per commit.
  telemetry::TelemetryOptions telemetry{};

  index_t concurrent_slots = 14;  ///< multiprocessors per device (C2070: 14)
  /// Virtual seconds for one *global* iteration (all blocks once);
  /// per-block duration is derived as global_iteration_time *
  /// concurrent_slots / num_blocks (capped at num_blocks).
  value_t global_iteration_time = 1.0e-2;
  value_t jitter = 0.20;            ///< +- fraction on block durations
  value_t straggler_prob = 0.05;    ///< chance a block is delayed...
  value_t straggler_factor = 2.0;   ///< ...by this duration factor
  /// Chazan-Miranker condition 2 (bounded shift): a block may not run
  /// more than this many generations ahead of the slowest block on its
  /// device. The GPU's greedy block scheduler provides the same
  /// guarantee because every queued block eventually gets a
  /// multiprocessor. block_async_solve sets 4 under a transfer scheme.
  index_t max_generation_skew = 2;
  /// Point within a block's execution at which the halo is read, as a
  /// fraction of the execution duration. 0 = most pessimistic (read at
  /// launch), 1 = freshest possible. A real kernel streams its inputs
  /// while running; 0.5 reproduces the paper's observation that
  /// async-(1) converges at essentially the synchronous Jacobi rate.
  value_t read_fraction = 0.5;

  SchedulePolicy policy = SchedulePolicy::kJittered;
  std::uint64_t seed = 99;
  /// When set, block durations follow a *recurring pattern* drawn from
  /// this seed (identical across runs), and `seed` only contributes a
  /// tiny multiplicative perturbation (`run_noise`). This models the
  /// paper's Section 4.1 observation that the GPU's internal scheduling
  /// appears to repeat a pattern, making run-to-run variation small and
  /// structured rather than fully random.
  std::optional<std::uint64_t> pattern_seed;
  /// Relative magnitude of the per-run perturbation under pattern mode.
  value_t run_noise = 2.0e-3;
  /// Record one TraceEvent per block execution (memory ~ O(executions)).
  bool record_trace = false;
  /// Fault timeline (component failures, halo corruption; device
  /// dropout and link failures need a transfer scheme and are ignored
  /// under kNone). The paper's Section 4.5 failure is
  /// FaultScenario{}.fail_components(...).
  std::optional<resilience::FaultScenario> scenario;
  /// Active recovery: checkpoint/rollback, online SDC detection,
  /// watchdog supervision. Unset = plain run (legacy behavior).
  std::optional<resilience::Policy> resilience;

  /// > 1 enables the parallel commit path: all WRITE events that fall
  /// at the same virtual time are executed concurrently on a reusable
  /// worker pool (their owned row ranges are disjoint) and committed
  /// in deterministic event order, so results — iterate, histories,
  /// trace — are bit-identical to the serial path. Requires
  /// kernel.parallel_commit_safe(); fault timelines and resilience
  /// policies automatically fall back to serial commits because their
  /// iteration boundaries may mutate state mid-batch, and so do
  /// multi-device runs. 0 or 1 = serial.
  index_t num_workers = 0;

  /// Device layout (see the file comment): 1..8 devices, more than one
  /// only with a transfer scheme.
  index_t num_devices = 1;
  TransferScheme scheme = TransferScheme::kNone;
  TransferParams transfer{};
};

struct ExecutorResult {
  /// Why the run stopped; kRecoveredConverged when the resilience
  /// layer rewrote the iterate on the way to convergence.
  SolverStatus status = SolverStatus::kMaxIterations;
  [[nodiscard]] bool ok() const { return succeeded(status); }
  index_t global_iterations = 0;
  value_t virtual_time = 0.0;  ///< simulated seconds at stop
  /// residual_history[k] = residual after k global iterations
  /// (residual_history[0] is the initial residual).
  std::vector<value_t> residual_history;
  /// Virtual time at which each history entry was recorded.
  std::vector<value_t> time_history;
  /// Number of completed executions per block (Chazan-Miranker
  /// condition 1: every block updated "infinitely often" — in practice,
  /// counts stay within a bounded spread).
  std::vector<index_t> block_executions;
  /// Largest generation lag observed between a reader and the halo
  /// source it read (bounded-shift condition 2); negative shifts (the
  /// source is *ahead*) are folded in by absolute value.
  index_t max_staleness = 0;
  /// Execution trace (only populated when options.record_trace).
  ExecutionTrace trace;
  /// What the resilience layer did (checkpoints, rollbacks, watchdog
  /// actions, link retries); all-zero for plain runs.
  resilience::Report resilience;
  /// Bytes moved and transfers made by the transfer scheme (zero under
  /// kNone).
  value_t bytes_host_device = 0.0;
  value_t bytes_device_device = 0.0;
  index_t num_transfers = 0;
};

/// Runs the kernel until the stopping rule's verdict, in virtual time.
class AsyncExecutor {
 public:
  AsyncExecutor(const BlockKernel& kernel, ExecutorOptions opts);
  ~AsyncExecutor();

  /// Iterate on x in place. residual_fn is called once initially and
  /// then at most once per global iteration with the current iterate
  /// (under the residual proxy, only at the boundaries the proxy
  /// leaves to it; see ExecutorOptions::rhs_norm). The stopping rule
  /// is also applied at boundary 0, so a solve may stop before any
  /// block runs.
  ExecutorResult run(Vector& x,
                     const std::function<value_t(const Vector&)>& residual_fn);

 private:
  const BlockKernel& kernel_;
  ExecutorOptions opts_;
  /// Lazily created on the first parallel run(), then reused across
  /// runs so repeated solves pay thread spawn-up only once.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace bars::gpusim
