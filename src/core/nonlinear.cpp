#include "core/nonlinear.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "backend/block_split.hpp"
#include "core/block_async.hpp"
#include "sparse/partition.hpp"
#include "sparse/vector_ops.hpp"

namespace bars {

namespace {

/// Virtual seconds per global iteration of the nonlinear iteration: the
/// executor's generic unit, since the cost model is calibrated for the
/// linear kernels only.
constexpr value_t kIterationTime = 1.0e-2;

/// Nonlinear residual r = b - A x - phi(x); returns relative l2 norm.
value_t nonlinear_residual(const Csr& a, const Vector& b,
                           const DiagonalNonlinearity& phi, const Vector& x,
                           value_t den) {
  Vector r(b.size());
  a.residual(b, x, r);
  for (std::size_t i = 0; i < x.size(); ++i) {
    r[i] -= phi.value(static_cast<index_t>(i), x[i]);
  }
  return norm2(r) / den;
}

/// BlockKernel for the nonlinear two-stage update: freeze off-block
/// linear coupling, run damped Newton-Jacobi sweeps locally.
class NonlinearBlockKernel final : public gpusim::BlockKernel {
 public:
  NonlinearBlockKernel(const Csr& a, const Vector& b,
                       const DiagonalNonlinearity& phi,
                       RowPartition partition, index_t local_iters,
                       value_t damping)
      : b_(b),
        phi_(phi),
        partition_(std::move(partition)),
        local_iters_(local_iters),
        damping_(damping) {
    if (local_iters <= 0) {
      throw std::invalid_argument(
          "NonlinearBlockKernel: local_iters must be > 0");
    }
    if (damping <= 0.0 || damping > 1.0) {
      throw std::invalid_argument(
          "NonlinearBlockKernel: damping must be in (0, 1]");
    }
    // The linear split (halo positions included) is built once here;
    // update() only reads it and the per-block scratch.
    backend::detail::BlockSplitBuilder builder(a);
    blocks_.resize(static_cast<std::size_t>(partition_.num_blocks()));
    for (index_t bi = 0; bi < partition_.num_blocks(); ++bi) {
      const RowBlock range = partition_.block(bi);
      Block& blk = blocks_[static_cast<std::size_t>(bi)];
      builder.build(range.begin, range.end, blk, "NonlinearBlockKernel");
      const auto m = static_cast<std::size_t>(range.end - range.begin);
      blk.s.resize(m);
      blk.xl.resize(m);
      blk.xn.resize(m);
    }
  }

  [[nodiscard]] index_t num_blocks() const override {
    return partition_.num_blocks();
  }
  [[nodiscard]] index_t num_rows() const override {
    return partition_.total_rows();
  }
  [[nodiscard]] std::span<const index_t> halo(index_t block) const override {
    return blocks_[static_cast<std::size_t>(block)].halo;
  }
  [[nodiscard]] std::pair<index_t, index_t> rows(
      index_t block) const override {
    const RowBlock range = partition_.block(block);
    return {range.begin, range.end};
  }

  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x,
              const gpusim::ExecContext& ctx) const override {
    const Block& blk = blocks_[static_cast<std::size_t>(block)];
    const auto [lo, hi] = rows(block);
    const index_t m = hi - lo;
    value_t* s = blk.s.data();
    value_t* xl = blk.xl.data();
    value_t* xn = blk.xn.data();

    // Frozen off-block linear contribution s_i = b_i - sum_out a_ij x_j.
    for (index_t li = 0; li < m; ++li) {
      value_t acc = b_[lo + li];
      for (index_t k = blk.grow_ptr[li]; k < blk.grow_ptr[li + 1]; ++k) {
        acc -= blk.gval[k] * halo_values[blk.gcol[k]];
      }
      s[li] = acc;
    }

    std::copy(x.begin() + lo, x.begin() + hi, xl);
    for (index_t sweep = 0; sweep < local_iters_; ++sweep) {
      for (index_t li = 0; li < m; ++li) {
        value_t acc = s[li];
        for (index_t k = blk.lrow_ptr[li]; k < blk.lrow_ptr[li + 1]; ++k) {
          acc -= blk.lval[k] * xl[blk.lcol[k]];
        }
        const index_t i = lo + li;
        const value_t diag = blk.diag[li];
        const value_t jac = diag + phi_.derivative(i, xl[li]);
        if (jac <= 0.0) {
          throw std::domain_error(
              "nonlinear_block_async_solve: non-positive local Jacobian");
        }
        const value_t f = acc - diag * xl[li] - phi_.value(i, xl[li]);
        xn[li] = xl[li] + damping_ * f / jac;
      }
      std::swap(xl, xn);
    }

    const std::vector<std::uint8_t>* mask = ctx.failed_components;
    for (index_t i = lo; i < hi; ++i) {
      if (mask && (*mask)[i]) continue;
      x[i] = xl[i - lo];
    }
  }

 private:
  /// The block's linear split plus its sweep scratch, sized once;
  /// distinct blocks never share scratch, so concurrent updates of
  /// distinct blocks stay race-free.
  struct Block : backend::detail::BlockSplit {
    mutable Vector s;   ///< frozen s_i
    mutable Vector xl;  ///< sweep iterate
    mutable Vector xn;  ///< next sweep iterate
  };

  const Vector& b_;
  const DiagonalNonlinearity& phi_;
  RowPartition partition_;
  index_t local_iters_;
  value_t damping_;
  std::vector<Block> blocks_;
};

}  // namespace

DiagonalNonlinearity zero_nonlinearity() {
  return {[](index_t, value_t) { return 0.0; },
          [](index_t, value_t) { return 0.0; }};
}

DiagonalNonlinearity cubic_nonlinearity(value_t c) {
  return {[c](index_t, value_t x) { return c * x * x * x; },
          [c](index_t, value_t x) { return 3.0 * c * x * x; }};
}

DiagonalNonlinearity exponential_nonlinearity(value_t c) {
  return {[c](index_t, value_t x) { return c * (std::exp(x) - 1.0); },
          [c](index_t, value_t x) { return c * std::exp(x); }};
}

NonlinearAsyncResult nonlinear_block_async_solve(
    const Csr& a, const Vector& b, const DiagonalNonlinearity& phi,
    const NonlinearAsyncOptions& opts, const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument(
        "nonlinear_block_async_solve: dimension mismatch");
  }
  if (!phi.value || !phi.derivative) {
    throw std::invalid_argument(
        "nonlinear_block_async_solve: nonlinearity callbacks required");
  }
  const NonlinearBlockKernel kernel(
      a, b, phi, RowPartition::uniform(a.rows(), opts.block_size),
      opts.local_iters, opts.damping);

  BlockAsyncOptions o;
  o.solve = opts.solve;
  o.block_size = opts.block_size;
  o.local_iters = opts.local_iters;
  o.policy = opts.policy;
  o.concurrent_slots = opts.concurrent_slots;
  o.jitter = opts.jitter;
  o.seed = opts.seed;
  // The nonlinear kernel writes no per-block residuals to build a proxy.
  o.exact_history = true;
  const value_t nb = norm2(b);
  const value_t den = nb > 0.0 ? nb : 1.0;
  BlockAsyncResult r = detail::run_block_kernel(
      kernel, a, b, o, x0, "nonlinear-block-async", kIterationTime,
      [&](const Vector& x) { return nonlinear_residual(a, b, phi, x, den); });
  return {std::move(r.solve), std::move(r.block_executions)};
}

SolveResult nonlinear_jacobi_solve(const Csr& a, const Vector& b,
                                   const DiagonalNonlinearity& phi,
                                   const SolveOptions& opts, value_t damping,
                                   const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("nonlinear_jacobi_solve: dimension mismatch");
  }
  if (damping <= 0.0 || damping > 1.0) {
    throw std::invalid_argument(
        "nonlinear_jacobi_solve: damping must be in (0, 1]");
  }
  const std::size_t n = b.size();
  SolveResult res;
  res.x = x0 ? *x0 : Vector(n, 0.0);
  const value_t nb = norm2(b);
  const value_t den = nb > 0.0 ? nb : 1.0;
  const Vector d = a.diagonal();

  SolveRecorder rec(res, opts, "nonlinear-jacobi");
  rec.probe().start(a.rows(), a.nnz());

  value_t rel = nonlinear_residual(a, b, phi, res.x, den);
  Vector ax(n);
  while (rec.proceed(rel)) {
    a.spmv(res.x, ax);
    Vector xn(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto ii = static_cast<index_t>(i);
      const value_t jac = d[i] + phi.derivative(ii, res.x[i]);
      if (jac <= 0.0) {
        throw std::domain_error(
            "nonlinear_jacobi_solve: non-positive Jacobian");
      }
      const value_t f = b[i] - ax[i] - phi.value(ii, res.x[i]);
      xn[i] = res.x[i] + damping * f / jac;
    }
    res.x = std::move(xn);
    rel = nonlinear_residual(a, b, phi, res.x, den);
    ++res.iterations;
  }
  return res;
}

}  // namespace bars
