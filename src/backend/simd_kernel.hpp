#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "backend/block_split.hpp"
#include "backend/kernel_backend.hpp"
#include "gpusim/block_kernel.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

/// \file simd_kernel.hpp
/// The SIMD backend's kernel: the same two-stage block sweep as the
/// scalar BlockJacobiKernel, but over a vector-width-padded slice
/// layout so each AVX2 FMA processes four block rows at once.
///
/// Layout (per block, SELL-C-style with C = 4 = doubles per __m256d):
/// rows are cut into groups of 4 consecutive rows; within a group every
/// row is padded to the group's maximum entry count, and entries are
/// stored lane-interleaved — slot k of lane l lives at packed index
/// (base + k) * 4 + l — separately for the block-local split (column
/// ids local to the block, gathered from the iterate / sweep scratch)
/// and the global split (positions into the halo snapshot). Padding
/// entries carry value 0 and column 0, so they contribute nothing while
/// keeping every lane's trip count identical. Column ids are stored as
/// int32 (the gather index width); value data stays double.
///
/// Numerics policy: identical accumulation ORDER to the scalar kernel
/// (rhs, minus global entries, minus local entries, divide by the
/// diagonal) — only the grouping of multiply-add into FMA changes
/// rounding. docs/BACKENDS.md documents the resulting elementwise
/// tolerance; tests/backend/test_backend.cpp enforces it on the paper
/// matrices.
///
/// Restrictions (throws backend_unsupported): Jacobi local sweeps only,
/// no overlap. Adaptive per-block sweep counts are supported.

namespace bars::backend {

namespace detail {

/// True when this binary contains the AVX2+FMA sweep (compiler flag
/// support decided at configure time).
[[nodiscard]] bool simd_compiled() noexcept;
/// True when the CPU we are running on executes AVX2+FMA.
[[nodiscard]] bool simd_cpu_supported() noexcept;

/// Packed per-block slice layout consumed by the vector sweep.
struct SimdBlockLayout {
  index_t lo = 0;  ///< owned row range [lo, hi)
  index_t hi = 0;
  index_t m = 0;            ///< hi - lo
  index_t full_groups = 0;  ///< m / 4 (vector-width groups)
  index_t num_groups = 0;   ///< ceil(m / 4); last may be lane-padded

  std::vector<index_t> halo;  ///< global indices read from outside

  // Local split (columns as block-local row ids), lane-interleaved.
  // Group g's entries occupy packed indices [lgroup_ptr[g] * 4,
  // lgroup_ptr[g + 1] * 4).
  std::vector<index_t> lgroup_ptr;
  std::vector<std::int32_t> lcol;
  std::vector<value_t> lval;

  // Global split (columns as positions into `halo`), lane-interleaved.
  std::vector<index_t> ggroup_ptr;
  std::vector<std::int32_t> gcol;
  std::vector<value_t> gval;

  std::vector<value_t> diag;  ///< a_ii per local row (size m)

  // Sweep scratch, padded to 4 * num_groups so full-width vector
  // stores on the last full group stay in bounds. `mutable` for the
  // same reason as the scalar kernel: update() is logically const and
  // distinct blocks own distinct scratch.
  mutable std::vector<value_t> scratch_s;
  mutable std::vector<value_t> scratch_a;
  mutable std::vector<value_t> scratch_b;
};

/// The vectorized sweep + commit for one block. Lives in the AVX2
/// translation unit; never allocates. `mask` is the executor's failed
/// component mask (may be null); `residual_sq`, when not null, receives
/// the block's squared residual at read time (ExecContext::residual_sq).
void simd_update_block(const SimdBlockLayout& blk,
                       std::span<const value_t> halo_values,
                       const value_t* rhs, std::span<value_t> x,
                       value_t omega, index_t sweeps,
                       const std::vector<std::uint8_t>* mask,
                       value_t* residual_sq) noexcept;

}  // namespace detail

/// Can the SIMD backend run here (compiled in AND cpu supports it)?
[[nodiscard]] bool simd_available() noexcept;

/// BlockSweepKernel over the padded slice layout above. Construct
/// through backend::build_kernel; throws backend_unsupported when
/// simd_available() is false or the configuration needs Gauss-Seidel
/// sweeps or overlap.
class SimdBlockSweepKernel final : public detail::SweepKernelBase {
 public:
  SimdBlockSweepKernel(const Csr& a, const Vector& b, RowPartition partition,
                       const KernelConfig& config);

  [[nodiscard]] std::span<const index_t> halo(index_t block) const override;

  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x,
              const gpusim::ExecContext& ctx) const override;

  /// No overlap by construction, per-block scratch: always safe.
  [[nodiscard]] bool parallel_commit_safe() const override { return true; }

  [[nodiscard]] index_t overlap() const noexcept override { return 0; }

  [[nodiscard]] std::string_view backend_name() const noexcept override {
    return "simd";
  }

 private:
  std::vector<detail::SimdBlockLayout> blocks_;
};

}  // namespace bars::backend
