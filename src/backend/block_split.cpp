#include "backend/block_split.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace bars::backend::detail {

SweepKernelBase::SweepKernelBase(const Csr& a, const Vector& b,
                                 RowPartition partition, index_t local_iters,
                                 value_t omega, const char* who)
    : b_(&b),
      partition_(std::move(partition)),
      local_iters_(local_iters),
      omega_(omega) {
  const std::string name(who);
  if (a.rows() != a.cols()) {
    throw std::invalid_argument(name + ": matrix not square");
  }
  if (partition_.total_rows() != a.rows() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument(name + ": size mismatch");
  }
  if (local_iters_ <= 0) {
    throw std::invalid_argument(name + ": local_iters must be > 0");
  }
  if (omega_ <= 0.0 || omega_ >= 2.0) {
    throw std::invalid_argument(name + ": omega must be in (0,2)");
  }
}

void SweepKernelBase::set_per_block_iters(std::vector<index_t> per_block) {
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

void SweepKernelBase::set_rhs(const Vector& b) {
  if (static_cast<index_t>(b.size()) != num_rows()) {
    throw std::invalid_argument("set_rhs: size must equal num_rows()");
  }
  b_ = &b;
}

BlockSplitBuilder::BlockSplitBuilder(const Csr& a)
    : a_(a),
      marks_((static_cast<std::size_t>(a.cols()) + 63) / 64, 0),
      position_(static_cast<std::size_t>(a.cols()), 0) {}

void BlockSplitBuilder::build(index_t lo, index_t hi, BlockSplit& out,
                              const char* who) {
  const auto m = static_cast<std::size_t>(hi - lo);
  const auto row_ptr = a_.row_ptr();
  const auto cols = a_.col_idx();
  const auto vals = a_.values();

  // Pass 1: count both splits and mark the halo columns.
  std::size_t nl = 0;
  std::size_t ng = 0;
  std::size_t wlo = marks_.size();
  std::size_t whi = 0;
  for (index_t i = lo; i < hi; ++i) {
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const index_t j = cols[k];
      if (j >= lo && j < hi) {
        nl += j != i ? 1 : 0;
      } else {
        ++ng;
        const auto w = static_cast<std::size_t>(j) / 64;
        marks_[w] |= std::uint64_t{1} << (j % 64);
        wlo = std::min(wlo, w);
        whi = std::max(whi, w + 1);
      }
    }
  }

  // The set bits, low to high, are the sorted unique halo. Reading them
  // out clears the bitmap for the next block.
  std::size_t nh = 0;
  for (std::size_t w = wlo; w < whi; ++w) nh += std::popcount(marks_[w]);
  constexpr std::size_t kMaxId = std::numeric_limits<std::int32_t>::max();
  if (m > kMaxId || nh > kMaxId) {
    throw std::invalid_argument(
        std::string(who) + ": block or halo exceeds the 32-bit column id range");
  }
  out.halo.resize(nh);
  std::size_t h = 0;
  for (std::size_t w = wlo; w < whi; ++w) {
    for (std::uint64_t bits = marks_[w]; bits != 0; bits &= bits - 1) {
      const auto j = static_cast<index_t>(w * 64) + std::countr_zero(bits);
      position_[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(h);
      out.halo[h++] = j;
    }
    marks_[w] = 0;
  }

  // Pass 2: split every row into diagonal / local / global.
  out.lrow_ptr.resize(m + 1);
  out.lcol.resize(nl);
  out.lval.resize(nl);
  out.grow_ptr.resize(m + 1);
  out.gcol.resize(ng);
  out.gval.resize(ng);
  out.diag.resize(m);
  std::size_t l = 0;
  std::size_t g = 0;
  out.lrow_ptr[0] = 0;
  out.grow_ptr[0] = 0;
  for (index_t i = lo; i < hi; ++i) {
    value_t diag = 0.0;
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const index_t j = cols[k];
      if (j == i) {
        diag = vals[k];
      } else if (j >= lo && j < hi) {
        out.lcol[l] = static_cast<std::int32_t>(j - lo);
        out.lval[l++] = vals[k];
      } else {
        out.gcol[g] = position_[static_cast<std::size_t>(j)];
        out.gval[g++] = vals[k];
      }
    }
    if (diag == 0.0) {
      throw std::invalid_argument(std::string(who) + ": zero diagonal entry");
    }
    const auto li = static_cast<std::size_t>(i - lo);
    out.diag[li] = diag;
    out.lrow_ptr[li + 1] = static_cast<index_t>(l);
    out.grow_ptr[li + 1] = static_cast<index_t>(g);
  }
}

}  // namespace bars::backend::detail
