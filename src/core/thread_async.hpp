#pragma once

#include <cstdint>
#include <string>

#include "core/solver_types.hpp"

/// \file thread_async.hpp
/// A *real* asynchronous relaxation solver on host threads: no
/// simulation, no virtual time — worker threads update their blocks
/// chaotically with relaxed-atomic reads/writes of the shared iterate,
/// exactly the Chazan-Miranker setting. This complements the gpusim
/// executor: the simulator gives reproducibility, this gives native
/// hardware asynchrony (and demonstrates that convergence under
/// rho(|B|) < 1 does not depend on the simulation).

namespace bars {

struct ThreadAsyncOptions {
  SolveOptions solve{};
  index_t block_size = 256;
  index_t local_iters = 1;
  /// 0 = use std::thread::hardware_concurrency (at least 1).
  index_t num_threads = 0;
  /// Compute backend building the block-sweep kernel ("scalar",
  /// "simd", "auto"; see docs/BACKENDS.md). Unavailable backends
  /// degrade to "scalar".
  std::string backend = "scalar";
};

/// Extended result with per-block execution counts.
struct ThreadAsyncResult {
  SolveResult solve;
  std::vector<index_t> block_executions;
  index_t total_block_executions = 0;
};

/// Solve A x = b by chaotic relaxation on host threads. Residual
/// history is sampled once per completed global iteration (q block
/// executions); a worker runs at most one pass ahead of the last
/// sample, so sample k sees every block executed k or k + 1 times.
/// Non-deterministic by nature; convergence is guaranteed for
/// rho(|B|) < 1 (Strikwerda).
[[nodiscard]] ThreadAsyncResult thread_async_solve(
    const Csr& a, const Vector& b, const ThreadAsyncOptions& opts = {},
    const Vector* x0 = nullptr);

}  // namespace bars
