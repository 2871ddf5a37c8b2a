#include "backend/simd_kernel.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "backend/block_split.hpp"
#include "common/annotations.hpp"
#include "common/check.hpp"

namespace bars::backend {

bool simd_available() noexcept {
  return detail::simd_compiled() && detail::simd_cpu_supported();
}

namespace {

constexpr index_t kLanes = 4;  ///< doubles per __m256d

/// Lane-interleave one row-major split (row_ptr, col, val) of an m-row
/// block into groups of kLanes rows, each row padded to its group's
/// widest: slot k of lane l in group g lands at packed index
/// (group_ptr[g] + k) * kLanes + l.
void pack_groups(index_t m, const std::vector<index_t>& row_ptr,
                 const std::vector<std::int32_t>& col,
                 const std::vector<value_t>& val,
                 std::vector<index_t>& group_ptr,
                 std::vector<std::int32_t>& pcol, std::vector<value_t>& pval) {
  // A group is as wide as its widest row; group_ptr sums the widths.
  group_ptr.assign(static_cast<std::size_t>((m + kLanes - 1) / kLanes + 1), 0);
  for (index_t r = 0; r < m; ++r) {
    index_t& width = group_ptr[static_cast<std::size_t>(r / kLanes + 1)];
    width = std::max(width, row_ptr[r + 1] - row_ptr[r]);
  }
  std::partial_sum(group_ptr.begin(), group_ptr.end(), group_ptr.begin());
  // Padding: value 0 at column 0 — gathers an in-bounds element and
  // multiplies it by zero.
  const auto packed = static_cast<std::size_t>(kLanes * group_ptr.back());
  pcol.assign(packed, 0);
  pval.assign(packed, 0.0);
  for (index_t r = 0; r < m; ++r) {
    const index_t base = group_ptr[r / kLanes] * kLanes + r % kLanes;
    for (index_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto at = static_cast<std::size_t>(base + (k - row_ptr[r]) * kLanes);
      pcol[at] = col[static_cast<std::size_t>(k)];
      pval[at] = val[static_cast<std::size_t>(k)];
    }
  }
}

}  // namespace

SimdBlockSweepKernel::SimdBlockSweepKernel(const Csr& a, const Vector& b,
                                           RowPartition partition,
                                           const KernelConfig& config)
    : SweepKernelBase(a, b, std::move(partition), config.local_iters,
                      config.local_omega, "SimdBlockSweepKernel") {
  if (!simd_available()) {
    throw backend_unsupported(
        "simd backend: AVX2+FMA not available on this machine/build");
  }
  if (config.sweep != LocalSweep::kJacobi) {
    throw backend_unsupported(
        "simd backend: only Jacobi local sweeps are vectorized");
  }
  if (config.overlap != 0) {
    throw backend_unsupported("simd backend: overlap is not supported");
  }
  if (a.rows() > std::numeric_limits<std::int32_t>::max()) {
    throw backend_unsupported(
        "simd backend: matrix exceeds 32-bit gather index range");
  }

  const index_t q = partition_.num_blocks();
  blocks_.resize(static_cast<std::size_t>(q));
  // The halo and split come from the same builder as the scalar kernel's,
  // so both backends snapshot the same values and see the same staleness.
  detail::BlockSplitBuilder builder(a);
  detail::BlockSplit split;
  for (index_t bi = 0; bi < q; ++bi) {
    detail::SimdBlockLayout& blk = blocks_[static_cast<std::size_t>(bi)];
    const RowBlock range = partition_.block(bi);
    blk.lo = range.begin;
    blk.hi = range.end;
    blk.m = blk.hi - blk.lo;
    blk.full_groups = blk.m / kLanes;
    blk.num_groups = (blk.m + kLanes - 1) / kLanes;

    builder.build(blk.lo, blk.hi, split, "SimdBlockSweepKernel");
    blk.halo = std::move(split.halo);
    blk.diag = std::move(split.diag);
    pack_groups(blk.m, split.lrow_ptr, split.lcol, split.lval, blk.lgroup_ptr,
                blk.lcol, blk.lval);
    pack_groups(blk.m, split.grow_ptr, split.gcol, split.gval, blk.ggroup_ptr,
                blk.gcol, blk.gval);

    // Scratch padded to full groups so vector stores never run past
    // the end; update() never allocates.
    const std::size_t padded =
        static_cast<std::size_t>(kLanes * blk.num_groups);
    blk.scratch_s.assign(padded, 0.0);
    blk.scratch_a.assign(padded, 0.0);
    blk.scratch_b.assign(padded, 0.0);
  }
}

std::span<const index_t> SimdBlockSweepKernel::halo(index_t block) const {
  return blocks_[static_cast<std::size_t>(block)].halo;
}

BARS_HOT_NOALLOC void SimdBlockSweepKernel::update(
    index_t block, std::span<const value_t> halo_values,
    std::span<value_t> x, const gpusim::ExecContext& ctx) const {
  const detail::SimdBlockLayout& blk =
      blocks_[static_cast<std::size_t>(block)];
  BARS_DCHECK(halo_values.size() == blk.halo.size())
      << "block " << block << " halo size " << halo_values.size()
      << " != " << blk.halo.size() << " at vt " << ctx.virtual_time;
  BARS_DCHECK(static_cast<index_t>(x.size()) == num_rows())
      << "block " << block << " iterate size " << x.size() << " at vt "
      << ctx.virtual_time;
  detail::simd_update_block(blk, halo_values, b_->data(), x, omega_,
                            block_local_iters(block), ctx.failed_components,
                            ctx.residual_sq);
}

}  // namespace bars::backend
