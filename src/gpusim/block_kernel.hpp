#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sparse/types.hpp"

/// \file block_kernel.hpp
/// Interface between the numerics-agnostic asynchronous executor
/// (gpusim) and the relaxation kernels (core). A BlockKernel owns the
/// row-block decomposition and knows how to update one block's segment
/// of the iterate given a snapshot of the off-block ("halo") values.

namespace bars::gpusim {

/// Per-execution context handed to the kernel.
struct ExecContext {
  value_t virtual_time = 0.0;   ///< simulated seconds at block start
  /// Optional component fault mask (size n). A true entry marks a
  /// component whose owning core has failed: the kernel must leave its
  /// value untouched (paper Section 4.5). nullptr when no fault active.
  const std::vector<std::uint8_t>* failed_components = nullptr;
  /// Optional out-slot for the block's squared residual at read time,
  /// ||b_B - A_B x||^2 over the owned rows with the halo snapshot and
  /// the block's rows as they were before this update. A kernel whose
  /// first sweep forms that sum anyway (b_i - sum_j a_ij x_j, before
  /// the division by a_ii) writes it here; any other kernel leaves the
  /// slot alone and the executor keeps the exact residual for that run.
  /// nullptr when the executor does not want it.
  value_t* residual_sq = nullptr;
};

/// Numeric kernel for one row block ("subdomain").
///
/// Contract:
///   - `halo(b)` returns the global indices outside block b that
///     `update(b, ...)` reads; the executor snapshots exactly these at
///     the block's virtual start time.
///   - `update(b, halo_values, x, ctx)` may read/write only the rows of
///     block b in `x`, plus `halo_values` (aligned with `halo(b)`).
/// This split is what creates genuine asynchronous staleness: between a
/// block's snapshot and its commit, other blocks keep committing.
class BlockKernel {
 public:
  virtual ~BlockKernel() = default;

  [[nodiscard]] virtual index_t num_blocks() const = 0;
  [[nodiscard]] virtual index_t num_rows() const = 0;

  /// Global indices read from outside block b (sorted, unique).
  [[nodiscard]] virtual std::span<const index_t> halo(index_t block) const = 0;

  /// Row range [begin, end) of block b.
  [[nodiscard]] virtual std::pair<index_t, index_t> rows(
      index_t block) const = 0;

  /// Perform the block update in place on x (own rows only).
  virtual void update(index_t block, std::span<const value_t> halo_values,
                      std::span<value_t> x, const ExecContext& ctx) const = 0;

  /// True when update(b, ...) honors the contract above to the letter:
  /// besides `halo_values` it reads and writes only rows owned by
  /// block b. The executor then runs same-virtual-time updates of
  /// distinct blocks concurrently (their row ranges are disjoint).
  /// Kernels that read x outside their owned rows — e.g. overlapping
  /// subdomains seeding from neighbor rows at update time — must
  /// return false, which serializes commits. Implementations returning
  /// true must also tolerate concurrent update() calls for *distinct*
  /// blocks (per-block mutable scratch is fine, shared scratch is not).
  [[nodiscard]] virtual bool parallel_commit_safe() const { return true; }
};

}  // namespace bars::gpusim
