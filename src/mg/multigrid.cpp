#include "mg/multigrid.hpp"

#include <cmath>
#include <stdexcept>

#include "core/block_async.hpp"
#include "core/gauss_seidel.hpp"
#include "core/jacobi.hpp"
#include "matrices/generators.hpp"
#include "sparse/dense.hpp"
#include "sparse/vector_ops.hpp"

namespace bars::mg {

namespace {

bool is_pow2_minus_1(index_t m) {
  return m >= 3 && ((m + 1) & m) == 0;
}

index_t gi(index_t m, index_t i, index_t j) { return i * m + j; }

/// Full-weighting restriction from (2m+1)^2 fine grid to m^2 coarse.
Vector restrict_fw(const Vector& fine, index_t mf) {
  const index_t mc = (mf - 1) / 2;
  Vector coarse(static_cast<std::size_t>(mc * mc), 0.0);
  for (index_t ic = 0; ic < mc; ++ic) {
    for (index_t jc = 0; jc < mc; ++jc) {
      const index_t fi = 2 * ic + 1;
      const index_t fj = 2 * jc + 1;
      value_t s = 0.0;
      for (index_t di = -1; di <= 1; ++di) {
        for (index_t dj = -1; dj <= 1; ++dj) {
          const value_t w =
              (di == 0 ? 2.0 : 1.0) * (dj == 0 ? 2.0 : 1.0) / 16.0;
          s += w * fine[gi(mf, fi + di, fj + dj)];
        }
      }
      coarse[gi(mc, ic, jc)] = 4.0 * s;  // h^2 scaling of the stencil
    }
  }
  return coarse;
}

/// Bilinear prolongation from m^2 coarse to (2m+1)^2 fine; adds into x.
void prolong_add(const Vector& coarse, index_t mc, Vector& fine,
                 index_t mf) {
  for (index_t ic = 0; ic < mc; ++ic) {
    for (index_t jc = 0; jc < mc; ++jc) {
      const value_t v = coarse[gi(mc, ic, jc)];
      const index_t fi = 2 * ic + 1;
      const index_t fj = 2 * jc + 1;
      for (index_t di = -1; di <= 1; ++di) {
        for (index_t dj = -1; dj <= 1; ++dj) {
          const index_t ti = fi + di;
          const index_t tj = fj + dj;
          if (ti < 0 || ti >= mf || tj < 0 || tj >= mf) continue;
          const value_t w =
              (di == 0 ? 1.0 : 0.5) * (dj == 0 ? 1.0 : 0.5);
          fine[gi(mf, ti, tj)] += w * v;
        }
      }
    }
  }
}

}  // namespace

PoissonMultigrid::PoissonMultigrid(index_t m, value_t c, Smoother smoother)
    : smoother_(std::move(smoother)) {
  if (!is_pow2_minus_1(m)) {
    throw std::invalid_argument("PoissonMultigrid: m must be 2^k - 1, k>=2");
  }
  // With unscaled stencils (diag 4 + c), halving the grid multiplies
  // the Laplacian part by 4 relative to the fine grid, so the reaction
  // coefficient must be scaled by 4 per level (and the restricted
  // residual by 4, see vcycle) for a consistent coarse-grid correction.
  value_t c_level = c;
  for (index_t mm = m; mm >= 3; mm = (mm - 1) / 2) {
    levels_.push_back(fv_like(mm, c_level));
    sizes_.push_back(mm);
    c_level *= 4.0;
    if (!is_pow2_minus_1((mm - 1) / 2)) break;
  }
  if (!smoother_) {
    throw std::invalid_argument("PoissonMultigrid: null smoother");
  }
}

void PoissonMultigrid::vcycle(index_t level, const Vector& b, Vector& x,
                              const MgOptions& opts) const {
  const Csr& a = levels_[static_cast<std::size_t>(level)];
  const index_t m = sizes_[static_cast<std::size_t>(level)];
  const bool coarsest =
      level + 1 >= static_cast<index_t>(levels_.size()) ||
      m <= opts.coarsest_size;
  if (coarsest) {
    x = Dense::from_csr(a).solve(b);
    return;
  }
  smoother_(a, b, x, opts.pre_smooth);
  Vector r(b.size());
  a.residual(b, x, r);
  const Vector rc = restrict_fw(r, m);
  Vector ec(rc.size(), 0.0);
  vcycle(level + 1, rc, ec, opts);
  if (opts.cycle == CycleType::kW) {
    vcycle(level + 1, rc, ec, opts);  // second coarse visit (W-cycle)
  }
  prolong_add(ec, (m - 1) / 2, x, m);
  smoother_(a, b, x, opts.post_smooth);
}

SolveResult PoissonMultigrid::solve(const Vector& b,
                                    const MgOptions& opts) const {
  const Csr& a = levels_.front();
  if (static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("PoissonMultigrid::solve: size mismatch");
  }
  SolveResult res;
  res.x.assign(b.size(), 0.0);
  const value_t nb = norm2(b);
  const value_t den = nb > 0.0 ? nb : 1.0;

  SolveRecorder rec(res, opts.solve,
                    opts.cycle == CycleType::kW ? "multigrid-w"
                                                : "multigrid-v");
  rec.probe().start(a.rows(), a.nnz(), num_levels());

  Vector r(b.size());
  a.residual(b, res.x, r);
  value_t rel = norm2(r) / den;
  while (rec.proceed(rel)) {
    vcycle(0, b, res.x, opts);
    a.residual(b, res.x, r);
    rel = norm2(r) / den;
    ++res.iterations;
  }
  return res;
}

Smoother gauss_seidel_smoother() {
  return [](const Csr& a, const Vector& b, Vector& x, index_t sweeps) {
    SolveOptions o;
    o.max_iters = sweeps;
    o.tol = 0.0;
    o.record_history = false;
    const SolveResult r = gauss_seidel_solve(a, b, o,
                                             SweepDirection::kForward, &x);
    x = r.x;
  };
}

Smoother jacobi_smoother(value_t omega) {
  return [omega](const Csr& a, const Vector& b, Vector& x, index_t sweeps) {
    SolveOptions o;
    o.max_iters = sweeps;
    o.tol = 0.0;
    o.record_history = false;
    const SolveResult r = scaled_jacobi_solve(a, b, omega, o, &x);
    x = r.x;
  };
}

Smoother block_async_smoother(index_t block_size, index_t local_iters,
                              std::uint64_t seed) {
  return [block_size, local_iters, seed](const Csr& a, const Vector& b,
                                         Vector& x, index_t sweeps) {
    BlockAsyncOptions o;
    o.solve.max_iters = sweeps;
    o.solve.tol = 0.0;
    o.solve.record_history = false;
    o.block_size = block_size;
    o.local_iters = local_iters;
    o.seed = seed;
    const BlockAsyncResult r = block_async_solve(a, b, o, &x);
    x = r.solve.x;
  };
}

std::optional<index_t> poisson_grid_size(const Csr& a) {
  if (a.rows() != a.cols() || a.rows() < 9) return std::nullopt;
  const auto m = static_cast<index_t>(
      std::lround(std::sqrt(static_cast<double>(a.rows()))));
  if (m * m != a.rows() || !is_pow2_minus_1(m)) return std::nullopt;
  // Recover c from the first diagonal entry, then demand an exact
  // structural and numerical match with the generator's stencil.
  const auto cols0 = a.row_cols(0);
  const auto vals0 = a.row_vals(0);
  value_t diag0 = 0.0;
  bool found = false;
  for (std::size_t k = 0; k < cols0.size(); ++k) {
    if (cols0[k] == 0) {
      diag0 = vals0[k];
      found = true;
      break;
    }
  }
  if (!found) return std::nullopt;
  const value_t c = diag0 - 4.0;
  const Csr ref = fv_like(m, c);
  if (ref.rows() != a.rows() || ref.nnz() != a.nnz()) return std::nullopt;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    const auto rc = ref.row_cols(i);
    const auto rv = ref.row_vals(i);
    if (ac.size() != rc.size()) return std::nullopt;
    for (std::size_t k = 0; k < ac.size(); ++k) {
      if (ac[k] != rc[k] || av[k] != rv[k]) return std::nullopt;
    }
  }
  return m;
}

}  // namespace bars::mg
