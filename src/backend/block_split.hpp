#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

/// \file block_split.hpp
/// The construction pass every block kernel shares: for one block's
/// working rows [lo, hi) of A, the halo (sorted unique columns outside
/// the range) and a row-major split of each row into its diagonal, its
/// in-range ("local") entries and its halo ("global") entries — the two
/// stages of Eq. (4). Within a row, entries keep their CSR order, so a
/// sweep over the split accumulates in exactly the order of a sweep
/// over A. SweepKernelBase holds what every kernel built this way
/// keeps besides its blocks.

namespace bars::backend::detail {

/// One block's split. Column ids are 32-bit: local ids index the
/// working range, global ids are positions into `halo`.
struct BlockSplit {
  std::vector<index_t> halo;  ///< global indices read from outside

  // Local sub-matrix (strictly off-diagonal, columns as local ids).
  std::vector<index_t> lrow_ptr;
  std::vector<std::int32_t> lcol;
  std::vector<value_t> lval;

  // Global coupling (columns as positions into `halo`).
  std::vector<index_t> grow_ptr;
  std::vector<std::int32_t> gcol;
  std::vector<value_t> gval;

  std::vector<value_t> diag;  ///< a_ii per local row
};

/// Splits the blocks of one matrix without sorting or searching. The
/// halo columns are marked in a word bitmap, and scanning its set bits
/// reads them out in ascending order. A dense column → halo position
/// map, rewritten for each block's halo and never cleared, replaces a
/// search per entry. A counting pass sizes every array, so each is
/// allocated once.
class BlockSplitBuilder {
 public:
  explicit BlockSplitBuilder(const Csr& a);

  /// Split rows [lo, hi) into `out`, overwriting its arrays. Throws
  /// std::invalid_argument prefixed with `who` when a row's diagonal is
  /// zero (or missing), or when the width or the halo does not fit the
  /// 32-bit column ids; the builder is not reusable after a throw.
  void build(index_t lo, index_t hi, BlockSplit& out, const char* who);

 private:
  const Csr& a_;
  std::vector<std::uint64_t> marks_;    ///< one bit per column, kept clear
  std::vector<std::int32_t> position_;  ///< column → halo position
};

/// The right-hand side, partition and sweep counts of a block-sweep
/// kernel, with the input checks every backend shares.
class SweepKernelBase : public BlockSweepKernel {
 public:
  [[nodiscard]] index_t num_blocks() const override {
    return partition_.num_blocks();
  }
  [[nodiscard]] index_t num_rows() const override {
    return partition_.total_rows();
  }
  [[nodiscard]] std::pair<index_t, index_t> rows(
      index_t block) const override {
    const RowBlock range = partition_.block(block);
    return {range.begin, range.end};
  }
  [[nodiscard]] index_t local_iters() const noexcept override {
    return local_iters_;
  }
  [[nodiscard]] const RowPartition& partition() const noexcept override {
    return partition_;
  }

  /// Override the sweep count per block (adaptive async-(k), the
  /// paper's Section 5 tuning question): block b performs
  /// per_block[b] local sweeps instead of the uniform local_iters.
  /// Size must equal num_blocks(); values must be >= 1.
  void set_per_block_iters(std::vector<index_t> per_block) override;
  [[nodiscard]] index_t block_local_iters(index_t block) const override {
    return per_block_iters_.empty()
               ? local_iters_
               : per_block_iters_[static_cast<std::size_t>(block)];
  }

  /// Repoint the right-hand side without rebuilding the per-block
  /// analysis (halo lists, local/global splits, diagonal factors) —
  /// those depend only on the matrix structure and partition, never on
  /// b. This is what lets the service layer's plan cache reuse one
  /// kernel across requests and run multi-RHS batches. The new vector
  /// must match num_rows() and outlive all subsequent update() calls;
  /// callers must serialize set_rhs() against concurrent update()s
  /// (the plan cache holds a per-plan lock for exactly this reason).
  void set_rhs(const Vector& b) override;
  [[nodiscard]] const Vector& rhs() const noexcept override { return *b_; }

 protected:
  /// Throws std::invalid_argument prefixed with `who` when `a` is not
  /// square, `b` or the partition does not match its rows, local_iters
  /// is not positive or omega is outside (0, 2).
  SweepKernelBase(const Csr& a, const Vector& b, RowPartition partition,
                  index_t local_iters, value_t omega, const char* who);

  const Vector* b_;  ///< current RHS (never null; repointed by set_rhs)
  RowPartition partition_;
  index_t local_iters_;
  value_t omega_;
  std::vector<index_t> per_block_iters_;  ///< empty = uniform local_iters_
};

}  // namespace bars::backend::detail
