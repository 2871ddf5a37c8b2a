#pragma once

#include <string_view>
#include <vector>

#include "backend/block_split.hpp"
#include "backend/kernel_backend.hpp"
#include "gpusim/block_kernel.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

/// \file block_jacobi_kernel.hpp
/// The scalar backend's kernel — the numeric core of Algorithm 1 /
/// Eq. (4): for one row block ("subdomain"), freeze the off-block
/// contribution using the halo snapshot, then perform `local_iters`
/// relaxation sweeps on the local sub-system before committing.

namespace bars {

/// BlockSweepKernel implementation over a CSR matrix and a contiguous
/// row partition. Precomputes, per block: the halo index list and a
/// local / global split of each row's entries, so one block update
/// touches only block-local data plus the snapshot.
///
/// With `overlap > 0` each block's *working* range extends `overlap`
/// rows beyond its owned range on both sides (restricted additive
/// Schwarz: compute on the extended subdomain, commit only the owned
/// rows). The overlap rows are seeded from the current iterate at
/// update time; the halo consists of columns outside the working range.
///
/// Construct through backend::build_kernel (the "scalar" backend) —
/// bars_lint's `backend-seam` rule bans direct construction outside
/// src/backend.
class BlockJacobiKernel final : public backend::detail::SweepKernelBase {
 public:
  /// Throws if `a` is not square, has a zero diagonal, or the partition
  /// does not cover its rows, or if a working range or its halo exceeds
  /// the 32-bit column id range.
  BlockJacobiKernel(const Csr& a, const Vector& b, RowPartition partition,
                    index_t local_iters,
                    LocalSweep sweep = LocalSweep::kJacobi,
                    value_t local_omega = 1.0, index_t overlap = 0);

  [[nodiscard]] std::span<const index_t> halo(index_t block) const override;

  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x,
              const gpusim::ExecContext& ctx) const override;

  /// Without overlap an update touches only its owned rows, so the
  /// executor may run distinct blocks concurrently (the per-block
  /// scratch buffers keep that race-free). Overlapping subdomains read
  /// neighbor rows of x at update time and must stay serialized.
  [[nodiscard]] bool parallel_commit_safe() const override {
    return overlap_ == 0;
  }

  [[nodiscard]] index_t overlap() const noexcept override { return overlap_; }

  [[nodiscard]] std::string_view backend_name() const noexcept override {
    return "scalar";
  }

 private:
  /// The split of the working range (backend/block_split.hpp) plus
  /// the range and the sweep scratch; the owned rows are rows(block).
  struct BlockData : backend::detail::BlockSplit {
    index_t work_lo = 0;  ///< working range (owned + overlap)
    index_t work_hi = 0;

    // Reusable sweep buffers, sized to the working range at
    // construction so update() performs no per-visit heap allocation.
    // `mutable` because update() is logically const; safe under
    // concurrent updates of *distinct* blocks (each block only ever
    // touches its own scratch).
    mutable std::vector<value_t> scratch_s;   ///< frozen s_i (Eq. 4)
    mutable std::vector<value_t> scratch_a;   ///< sweep iterate
    mutable std::vector<value_t> scratch_b;   ///< Jacobi double buffer
  };

  LocalSweep sweep_;
  index_t overlap_;
  std::vector<BlockData> blocks_;
};

}  // namespace bars
