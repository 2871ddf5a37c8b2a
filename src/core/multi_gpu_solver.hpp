#pragma once

#include <optional>
#include <string>

#include "backend/kernel_backend.hpp"
#include "core/solver_types.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/async_executor.hpp"

/// \file multi_gpu_solver.hpp
/// Front-end for the multi-GPU block-asynchronous iteration (paper
/// Sections 3.4, 4.6): async-(k) across 1..4 simulated GPUs with one of
/// the AMC / DC / DK communication schemes.

namespace bars {

struct MultiGpuOptions {
  SolveOptions solve{};

  index_t num_devices = 1;
  gpusim::TransferScheme scheme = gpusim::TransferScheme::kAMC;
  gpusim::TransferParams transfer{};

  index_t block_size = 448;
  index_t local_iters = 5;
  LocalSweep local_sweep = LocalSweep::kJacobi;
  /// Compute backend building the block-sweep kernel ("scalar",
  /// "simd", "auto"; see docs/BACKENDS.md).
  std::string backend = "scalar";

  index_t slots_per_device = 14;
  value_t jitter = 0.20;
  value_t straggler_prob = 0.05;
  value_t straggler_factor = 2.0;
  std::uint64_t seed = 99;
  /// Fault timeline incl. device dropout and link failures.
  std::optional<resilience::FaultScenario> scenario{};
  /// Active recovery layer (see docs/RESILIENCE.md).
  std::optional<resilience::Policy> resilience{};

  std::string matrix_name;
  const gpusim::CostModel* cost_model = nullptr;
};

struct MultiGpuResult {
  SolveResult solve;
  value_t bytes_host_device = 0.0;
  value_t bytes_device_device = 0.0;
  index_t num_transfers = 0;
  /// Virtual time at convergence — the quantity plotted in Fig. 11.
  value_t time_to_convergence = 0.0;
  /// Resilience activity (all-zero for plain runs).
  resilience::Report resilience;
};

[[nodiscard]] MultiGpuResult multi_gpu_block_async_solve(
    const Csr& a, const Vector& b, const MultiGpuOptions& opts = {},
    const Vector* x0 = nullptr);

}  // namespace bars
