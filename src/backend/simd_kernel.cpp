#include "backend/simd_kernel.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/annotations.hpp"
#include "common/check.hpp"

namespace bars::backend {

bool simd_available() noexcept {
  return detail::simd_compiled() && detail::simd_cpu_supported();
}

namespace {

constexpr index_t kLanes = 4;  ///< doubles per __m256d

/// Per-row (col, val) split staged row-major before lane interleaving.
struct RowSplit {
  std::vector<index_t> col;
  std::vector<value_t> val;
};

/// Pack one group's rows lane-interleaved, padded to the widest row.
/// `rows` spans the whole block; group g covers [4g, min(4g+4, m)).
void pack_group(const std::vector<RowSplit>& rows, index_t g, index_t m,
                std::vector<index_t>& group_ptr,
                std::vector<std::int32_t>& pcol, std::vector<value_t>& pval) {
  const index_t first = kLanes * g;
  index_t width = 0;
  for (index_t l = 0; l < kLanes && first + l < m; ++l) {
    width = std::max(
        width, static_cast<index_t>(rows[static_cast<std::size_t>(first + l)]
                                        .col.size()));
  }
  for (index_t k = 0; k < width; ++k) {
    for (index_t l = 0; l < kLanes; ++l) {
      const index_t r = first + l;
      if (r < m &&
          k < static_cast<index_t>(
                  rows[static_cast<std::size_t>(r)].col.size())) {
        const RowSplit& row = rows[static_cast<std::size_t>(r)];
        pcol.push_back(
            static_cast<std::int32_t>(row.col[static_cast<std::size_t>(k)]));
        pval.push_back(row.val[static_cast<std::size_t>(k)]);
      } else {
        // Padding: value 0 at column 0 — gathers an in-bounds element
        // and multiplies it by zero.
        pcol.push_back(0);
        pval.push_back(0.0);
      }
    }
  }
  group_ptr.push_back(group_ptr.back() + width);
}

}  // namespace

SimdBlockSweepKernel::SimdBlockSweepKernel(const Csr& a, const Vector& b,
                                           RowPartition partition,
                                           const KernelConfig& config)
    : b_(&b),
      partition_(std::move(partition)),
      local_iters_(config.local_iters),
      omega_(config.local_omega) {
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
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("SimdBlockSweepKernel: matrix not square");
  }
  if (partition_.total_rows() != a.rows() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("SimdBlockSweepKernel: size mismatch");
  }
  if (local_iters_ <= 0) {
    throw std::invalid_argument(
        "SimdBlockSweepKernel: local_iters must be > 0");
  }
  if (omega_ <= 0.0 || omega_ >= 2.0) {
    throw std::invalid_argument("SimdBlockSweepKernel: omega must be in (0,2)");
  }
  if (a.rows() > std::numeric_limits<std::int32_t>::max()) {
    throw backend_unsupported(
        "simd backend: matrix exceeds 32-bit gather index range");
  }

  const index_t q = partition_.num_blocks();
  blocks_.resize(static_cast<std::size_t>(q));
  std::vector<RowSplit> local_rows;
  std::vector<RowSplit> global_rows;
  for (index_t bi = 0; bi < q; ++bi) {
    detail::SimdBlockLayout& blk = blocks_[static_cast<std::size_t>(bi)];
    const RowBlock range = partition_.block(bi);
    blk.lo = range.begin;
    blk.hi = range.end;
    blk.m = blk.hi - blk.lo;
    blk.full_groups = blk.m / kLanes;
    blk.num_groups = (blk.m + kLanes - 1) / kLanes;

    // Pass 1: the halo (sorted unique columns outside the block) —
    // identical to the scalar kernel, so both backends snapshot the
    // same values and see the same staleness.
    for (index_t i = blk.lo; i < blk.hi; ++i) {
      for (index_t j : a.row_cols(i)) {
        if (j < blk.lo || j >= blk.hi) blk.halo.push_back(j);
      }
    }
    std::sort(blk.halo.begin(), blk.halo.end());
    blk.halo.erase(std::unique(blk.halo.begin(), blk.halo.end()),
                   blk.halo.end());

    // Pass 2: per-row local/global split, staged row-major.
    local_rows.assign(static_cast<std::size_t>(blk.m), {});
    global_rows.assign(static_cast<std::size_t>(blk.m), {});
    for (index_t i = blk.lo; i < blk.hi; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      const std::size_t li = static_cast<std::size_t>(i - blk.lo);
      value_t diag = 0.0;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t j = cols[k];
        if (j == i) {
          diag = vals[k];
        } else if (j >= blk.lo && j < blk.hi) {
          local_rows[li].col.push_back(j - blk.lo);
          local_rows[li].val.push_back(vals[k]);
        } else {
          const auto it =
              std::lower_bound(blk.halo.begin(), blk.halo.end(), j);
          global_rows[li].col.push_back(
              static_cast<index_t>(it - blk.halo.begin()));
          global_rows[li].val.push_back(vals[k]);
        }
      }
      if (diag == 0.0) {
        throw std::invalid_argument(
            "SimdBlockSweepKernel: zero diagonal entry");
      }
      blk.diag.push_back(diag);
    }

    // Pass 3: lane-interleave into padded slices.
    blk.lgroup_ptr.push_back(0);
    blk.ggroup_ptr.push_back(0);
    for (index_t g = 0; g < blk.num_groups; ++g) {
      pack_group(local_rows, g, blk.m, blk.lgroup_ptr, blk.lcol, blk.lval);
      pack_group(global_rows, g, blk.m, blk.ggroup_ptr, blk.gcol, blk.gval);
    }

    // Scratch padded to full groups so vector stores never run past
    // the end; update() never allocates.
    const std::size_t padded =
        static_cast<std::size_t>(kLanes * blk.num_groups);
    blk.scratch_s.assign(padded, 0.0);
    blk.scratch_a.assign(padded, 0.0);
    blk.scratch_b.assign(padded, 0.0);
  }
}

void SimdBlockSweepKernel::set_per_block_iters(
    std::vector<index_t> per_block) {
  if (static_cast<index_t>(per_block.size()) != num_blocks()) {
    throw std::invalid_argument(
        "set_per_block_iters: size must equal num_blocks()");
  }
  for (index_t k : per_block) {
    if (k <= 0) {
      throw std::invalid_argument(
          "set_per_block_iters: sweep counts must be >= 1");
    }
  }
  per_block_iters_ = std::move(per_block);
}

void SimdBlockSweepKernel::set_rhs(const Vector& b) {
  if (static_cast<index_t>(b.size()) != num_rows()) {
    throw std::invalid_argument("set_rhs: size must equal num_rows()");
  }
  b_ = &b;
}

index_t SimdBlockSweepKernel::block_local_iters(index_t block) const {
  return per_block_iters_.empty()
             ? local_iters_
             : per_block_iters_[static_cast<std::size_t>(block)];
}

index_t SimdBlockSweepKernel::num_blocks() const {
  return partition_.num_blocks();
}

index_t SimdBlockSweepKernel::num_rows() const {
  return partition_.total_rows();
}

std::span<const index_t> SimdBlockSweepKernel::halo(index_t block) const {
  return blocks_[static_cast<std::size_t>(block)].halo;
}

std::pair<index_t, index_t> SimdBlockSweepKernel::rows(index_t block) const {
  const detail::SimdBlockLayout& blk =
      blocks_[static_cast<std::size_t>(block)];
  return {blk.lo, blk.hi};
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
