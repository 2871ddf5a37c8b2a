#include "backend/block_jacobi_kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/annotations.hpp"
#include "common/check.hpp"

namespace bars {

BlockJacobiKernel::BlockJacobiKernel(const Csr& a, const Vector& b,
                                     RowPartition partition,
                                     index_t local_iters, LocalSweep sweep,
                                     value_t local_omega, index_t overlap)
    : SweepKernelBase(a, b, std::move(partition), local_iters, local_omega,
                      "BlockJacobiKernel"),
      sweep_(sweep),
      overlap_(overlap) {
  if (overlap_ < 0) {
    throw std::invalid_argument("BlockJacobiKernel: overlap must be >= 0");
  }

  const index_t n = a.rows();
  const index_t q = partition_.num_blocks();
  blocks_.resize(static_cast<std::size_t>(q));
  backend::detail::BlockSplitBuilder builder(a);
  for (index_t bi = 0; bi < q; ++bi) {
    BlockData& blk = blocks_[bi];
    const RowBlock range = partition_.block(bi);
    blk.work_lo = std::max<index_t>(range.begin - overlap_, 0);
    blk.work_hi = std::min<index_t>(range.end + overlap_, n);
    builder.build(blk.work_lo, blk.work_hi, blk, "BlockJacobiKernel");

    // Size the sweep scratch once; update() never allocates.
    const std::size_t m = static_cast<std::size_t>(blk.work_hi - blk.work_lo);
    blk.scratch_s.resize(m);
    blk.scratch_a.resize(m);
    blk.scratch_b.resize(m);
  }
}

std::span<const index_t> BlockJacobiKernel::halo(index_t block) const {
  return blocks_[static_cast<std::size_t>(block)].halo;
}

BARS_HOT_NOALLOC void BlockJacobiKernel::update(
    index_t block, std::span<const value_t> halo_values,
    std::span<value_t> x, const gpusim::ExecContext& ctx) const {
  const BlockData& blk = blocks_[static_cast<std::size_t>(block)];
  BARS_DCHECK(halo_values.size() == blk.halo.size())
      << "block " << block << " halo size " << halo_values.size()
      << " != " << blk.halo.size() << " at vt " << ctx.virtual_time;
  BARS_DCHECK(static_cast<index_t>(x.size()) == num_rows())
      << "block " << block << " iterate size " << x.size() << " at vt "
      << ctx.virtual_time;
  const index_t m = blk.work_hi - blk.work_lo;
  const index_t sweeps = block_local_iters(block);

  // First sweep, fused: the frozen s_i = b_i - (global part) of Eq. 4
  // is folded into the same accumulator chain as the local part, so
  // async-(1) makes a single pass with no staging array. s_i is spilled
  // to scratch only when later sweeps will need it. All buffers are
  // per-block scratch sized at construction — no heap allocation here.
  value_t* s = blk.scratch_s.data();
  value_t* cur = blk.scratch_a.data();
  value_t* nxt = blk.scratch_b.data();
  const value_t* xw = x.data() + blk.work_lo;  // working range, old values

  const value_t* rhs = b_->data();

  if (sweep_ == LocalSweep::kJacobi) {
    // acc - a_ii x_i is row i's residual at read time: its square sums
    // into the block's residual slot for one multiply-subtract per row.
    value_t rsq = 0.0;
    for (index_t li = 0; li < m; ++li) {
      value_t acc = rhs[blk.work_lo + li];
      for (index_t k = blk.grow_ptr[li]; k < blk.grow_ptr[li + 1]; ++k) {
        acc -= blk.gval[k] * halo_values[blk.gcol[k]];
      }
      if (sweeps > 1) s[li] = acc;
      for (index_t k = blk.lrow_ptr[li]; k < blk.lrow_ptr[li + 1]; ++k) {
        acc -= blk.lval[k] * xw[blk.lcol[k]];
      }
      const value_t ri = acc - blk.diag[li] * xw[li];
      rsq += ri * ri;
      cur[li] = (1.0 - omega_) * xw[li] + omega_ * (acc / blk.diag[li]);
    }
    // With overlap the working range holds rows the block does not own.
    if (ctx.residual_sq != nullptr && overlap_ == 0) *ctx.residual_sq = rsq;
    for (index_t sweep = 1; sweep < sweeps; ++sweep) {
      for (index_t li = 0; li < m; ++li) {
        value_t acc = s[li];
        for (index_t k = blk.lrow_ptr[li]; k < blk.lrow_ptr[li + 1]; ++k) {
          acc -= blk.lval[k] * cur[blk.lcol[k]];
        }
        nxt[li] = (1.0 - omega_) * cur[li] + omega_ * (acc / blk.diag[li]);
      }
      std::swap(cur, nxt);
    }
  } else {
    // Gauss-Seidel sweeps are in place, so seed the iterate first.
    std::copy(xw, xw + m, cur);
    for (index_t li = 0; li < m; ++li) {
      value_t acc = rhs[blk.work_lo + li];
      for (index_t k = blk.grow_ptr[li]; k < blk.grow_ptr[li + 1]; ++k) {
        acc -= blk.gval[k] * halo_values[blk.gcol[k]];
      }
      if (sweeps > 1) s[li] = acc;
      for (index_t k = blk.lrow_ptr[li]; k < blk.lrow_ptr[li + 1]; ++k) {
        acc -= blk.lval[k] * cur[blk.lcol[k]];
      }
      cur[li] = (1.0 - omega_) * cur[li] + omega_ * (acc / blk.diag[li]);
    }
    for (index_t sweep = 1; sweep < sweeps; ++sweep) {
      for (index_t li = 0; li < m; ++li) {
        value_t acc = s[li];
        for (index_t k = blk.lrow_ptr[li]; k < blk.lrow_ptr[li + 1]; ++k) {
          acc -= blk.lval[k] * cur[blk.lcol[k]];
        }
        cur[li] = (1.0 - omega_) * cur[li] + omega_ * (acc / blk.diag[li]);
      }
    }
  }

  // Commit only the owned rows (restricted additive Schwarz when
  // overlapping), honoring the component fault mask (failed components
  // keep their previous value — their core is gone, Section 4.5).
  const std::vector<std::uint8_t>* mask = ctx.failed_components;
  const auto [lo, hi] = rows(block);
  for (index_t gi = lo; gi < hi; ++gi) {
    if (mask && (*mask)[gi]) continue;
    x[gi] = cur[gi - blk.work_lo];
  }
}

}  // namespace bars
