#pragma once

#include <stdexcept>
#include <string_view>
#include <vector>

#include "gpusim/block_kernel.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

/// \file kernel_backend.hpp
/// The kernel interface of the paper's block sweep (Eq. 4): both
/// executors — the virtual-time gpusim::AsyncExecutor and the
/// host-thread thread_async_solve — consume BlockSweepKernel without
/// knowing which kernel they run. There are two: the scalar CSR kernel
/// (block_jacobi_kernel.hpp) and the AVX2 slice kernel
/// (simd_kernel.hpp); backend::build_kernel (registry.hpp) picks one by
/// name and degrades to scalar when the SIMD kernel throws
/// backend_unsupported. docs/BACKENDS.md is the authoritative contract.

namespace bars {

/// Flavor of the local sweeps inside a block. Lives at namespace scope
/// (not inside a backend) because it is part of the cross-backend
/// kernel configuration vocabulary.
enum class LocalSweep {
  kJacobi,       ///< Algorithm 1 as written ("Jacobi-like" local updates)
  kGaussSeidel,  ///< local forward Gauss-Seidel (ablation / extension)
};

namespace backend {

/// Thrown when a backend cannot run on this machine or cannot express
/// the requested kernel configuration. Callers that can degrade should
/// catch this and fall back to the scalar backend (build_kernel in
/// registry.hpp implements exactly that policy).
class backend_unsupported : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cross-backend kernel configuration: the sweep parameters each kernel
/// accepts (or rejects with backend_unsupported).
struct KernelConfig {
  index_t local_iters = 1;            ///< the k of async-(k)
  LocalSweep sweep = LocalSweep::kJacobi;
  value_t local_omega = 1.0;          ///< local relaxation weight
  index_t overlap = 0;                ///< restricted additive Schwarz rows
};

/// The kernel interface the solvers program against: gpusim's
/// BlockKernel (halo/rows/update — what the executors need) plus the
/// RHS/partition bookkeeping the solver front-ends and the service
/// layer's plan cache rely on.
class BlockSweepKernel : public gpusim::BlockKernel {
 public:
  /// Repoint the right-hand side without rebuilding the per-block
  /// analysis; the new vector must match num_rows() and outlive all
  /// subsequent update() calls. Callers serialize set_rhs() against
  /// concurrent update()s.
  virtual void set_rhs(const Vector& b) = 0;
  /// The right-hand side currently bound to the kernel.
  [[nodiscard]] virtual const Vector& rhs() const noexcept = 0;

  [[nodiscard]] virtual const RowPartition& partition() const noexcept = 0;
  [[nodiscard]] virtual index_t local_iters() const noexcept = 0;
  [[nodiscard]] virtual index_t overlap() const noexcept = 0;

  /// Override the sweep count per block (adaptive async-(k)). Size must
  /// equal num_blocks(); values must be >= 1. Backends that cannot vary
  /// the count per block throw backend_unsupported.
  virtual void set_per_block_iters(std::vector<index_t> per_block) = 0;
  /// Sweeps block b will perform.
  [[nodiscard]] virtual index_t block_local_iters(index_t block) const = 0;

  /// Name build_kernel resolved for this kernel ("scalar" or "simd").
  /// Telemetry uses it for per-backend counters.
  [[nodiscard]] virtual std::string_view backend_name() const noexcept = 0;
};

}  // namespace backend
}  // namespace bars
