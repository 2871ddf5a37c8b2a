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
    : b_(&b),
      partition_(std::move(partition)),
      local_iters_(local_iters),
      sweep_(sweep),
      omega_(local_omega),
      overlap_(overlap) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("BlockJacobiKernel: matrix not square");
  }
  if (partition_.total_rows() != a.rows() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("BlockJacobiKernel: size mismatch");
  }
  if (local_iters_ <= 0) {
    throw std::invalid_argument("BlockJacobiKernel: local_iters must be > 0");
  }
  if (omega_ <= 0.0 || omega_ >= 2.0) {
    throw std::invalid_argument("BlockJacobiKernel: omega must be in (0,2)");
  }
  if (overlap_ < 0) {
    throw std::invalid_argument("BlockJacobiKernel: overlap must be >= 0");
  }

  const index_t n = a.rows();
  const index_t q = partition_.num_blocks();
  blocks_.resize(static_cast<std::size_t>(q));
  for (index_t bi = 0; bi < q; ++bi) {
    BlockData& blk = blocks_[bi];
    const RowBlock range = partition_.block(bi);
    blk.lo = range.begin;
    blk.hi = range.end;
    blk.work_lo = std::max<index_t>(blk.lo - overlap_, 0);
    blk.work_hi = std::min<index_t>(blk.hi + overlap_, n);

    // Pass 1: collect the halo (sorted unique columns outside the
    // working range).
    for (index_t i = blk.work_lo; i < blk.work_hi; ++i) {
      for (index_t j : a.row_cols(i)) {
        if (j < blk.work_lo || j >= blk.work_hi) blk.halo.push_back(j);
      }
    }
    std::sort(blk.halo.begin(), blk.halo.end());
    blk.halo.erase(std::unique(blk.halo.begin(), blk.halo.end()),
                   blk.halo.end());

    // Pass 2: split every working row into diagonal / local / global.
    blk.lrow_ptr.push_back(0);
    blk.grow_ptr.push_back(0);
    for (index_t i = blk.work_lo; i < blk.work_hi; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      value_t diag = 0.0;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t j = cols[k];
        if (j == i) {
          diag = vals[k];
        } else if (j >= blk.work_lo && j < blk.work_hi) {
          blk.lcol.push_back(j - blk.work_lo);
          blk.lval.push_back(vals[k]);
        } else {
          const auto it =
              std::lower_bound(blk.halo.begin(), blk.halo.end(), j);
          blk.gcol.push_back(
              static_cast<index_t>(it - blk.halo.begin()));
          blk.gval.push_back(vals[k]);
        }
      }
      if (diag == 0.0) {
        throw std::invalid_argument("BlockJacobiKernel: zero diagonal entry");
      }
      blk.diag.push_back(diag);
      blk.lrow_ptr.push_back(static_cast<index_t>(blk.lcol.size()));
      blk.grow_ptr.push_back(static_cast<index_t>(blk.gcol.size()));
    }

    // Size the sweep scratch once; update() never allocates.
    const std::size_t m = static_cast<std::size_t>(blk.work_hi - blk.work_lo);
    blk.scratch_s.resize(m);
    blk.scratch_a.resize(m);
    blk.scratch_b.resize(m);
  }
}

void BlockJacobiKernel::set_per_block_iters(std::vector<index_t> per_block) {
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

void BlockJacobiKernel::set_rhs(const Vector& b) {
  if (static_cast<index_t>(b.size()) != num_rows()) {
    throw std::invalid_argument("set_rhs: size must equal num_rows()");
  }
  b_ = &b;
}

index_t BlockJacobiKernel::block_local_iters(index_t block) const {
  return per_block_iters_.empty()
             ? local_iters_
             : per_block_iters_[static_cast<std::size_t>(block)];
}

index_t BlockJacobiKernel::num_blocks() const {
  return partition_.num_blocks();
}

index_t BlockJacobiKernel::num_rows() const {
  return partition_.total_rows();
}

std::span<const index_t> BlockJacobiKernel::halo(index_t block) const {
  return blocks_[static_cast<std::size_t>(block)].halo;
}

std::pair<index_t, index_t> BlockJacobiKernel::rows(index_t block) const {
  const BlockData& blk = blocks_[static_cast<std::size_t>(block)];
  return {blk.lo, blk.hi};
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
  for (index_t gi = blk.lo; gi < blk.hi; ++gi) {
    if (mask && (*mask)[gi]) continue;
    x[gi] = cur[gi - blk.work_lo];
  }
}

}  // namespace bars
