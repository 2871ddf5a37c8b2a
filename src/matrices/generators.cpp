#include "matrices/generators.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "eigen/power_iteration.hpp"
#include "matrices/primes.hpp"
#include "stats/rng.hpp"

namespace bars {

namespace {

void require_positive(index_t v, const char* what) {
  if (v <= 0) throw std::invalid_argument(std::string(what) + ": must be > 0");
}

index_t grid_index(index_t m, index_t i, index_t j) { return i * m + j; }

}  // namespace

Csr trefethen(index_t n) {
  require_positive(n, "trefethen");
  const std::vector<index_t> primes = first_primes(n);
  Coo coo(n, n);
  // Each row in column order, so Csr::from_coo needs no sort.
  for (index_t i = 0; i < n; ++i) {
    index_t off = 1;
    while (off * 2 <= i) off *= 2;  // largest power of two <= i
    for (; i > 0 && off > 0; off /= 2) coo.add(i, i - off, 1.0);
    coo.add(i, i, static_cast<value_t>(primes[i]));
    for (off = 1; i + off < n; off *= 2) coo.add(i, i + off, 1.0);
  }
  return Csr::from_coo(coo);
}

Csr fv_like(index_t m, value_t c) {
  require_positive(m, "fv_like");
  const index_t n = m * m;
  Coo coo(n, n);
  coo.reserve(static_cast<std::size_t>(5 * n));
  // Each row in column order, so Csr::from_coo needs no sort.
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < m; ++j) {
      const index_t row = grid_index(m, i, j);
      if (i > 0) coo.add(row, grid_index(m, i - 1, j), -1.0);
      if (j > 0) coo.add(row, grid_index(m, i, j - 1), -1.0);
      coo.add(row, row, 4.0 + c);
      if (j + 1 < m) coo.add(row, grid_index(m, i, j + 1), -1.0);
      if (i + 1 < m) coo.add(row, grid_index(m, i + 1, j), -1.0);
    }
  }
  return Csr::from_coo(coo);
}

value_t fv_reaction_for_rho(index_t m, value_t target_rho) {
  require_positive(m, "fv_reaction_for_rho");
  if (target_rho <= 0.0 || target_rho >= 1.0) {
    throw std::invalid_argument("fv_reaction_for_rho: need 0 < rho < 1");
  }
  const value_t c1 =
      std::cos(std::numbers::pi_v<value_t> / static_cast<value_t>(m + 1));
  return 4.0 * c1 / target_rho - 4.0;
}

Csr structural_like(index_t m, value_t a) {
  require_positive(m, "structural_like");
  const index_t n = m * m;
  // T (x) T with T = tridiag(1, a, 1): 9-point tensor stencil.
  //   (i,j)->(i,j)     : a*a        (i+-1,j) / (i,j+-1) : a
  //   (i+-1,j+-1)      : 1
  Coo coo(n, n);
  coo.reserve(static_cast<std::size_t>(9 * n));
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < m; ++j) {
      const index_t row = grid_index(m, i, j);
      for (index_t di = -1; di <= 1; ++di) {
        for (index_t dj = -1; dj <= 1; ++dj) {
          const index_t ni = i + di;
          const index_t nj = j + dj;
          if (ni < 0 || ni >= m || nj < 0 || nj >= m) continue;
          const value_t w = (di == 0 ? a : 1.0) * (dj == 0 ? a : 1.0);
          coo.add(row, grid_index(m, ni, nj), w);
        }
      }
    }
  }
  return Csr::from_coo(coo);
}

value_t structural_diag_for_rho(index_t m, value_t target_rho) {
  require_positive(m, "structural_diag_for_rho");
  if (target_rho <= 0.0 || target_rho >= 3.0) {
    throw std::invalid_argument(
        "structural_diag_for_rho: need 0 < rho < 3 for an SPD instance");
  }
  const value_t c1 =
      std::cos(std::numbers::pi_v<value_t> / static_cast<value_t>(m + 1));
  // rho(B) = (1 + 2 c1 / a)^2 - 1  =>  a = 2 c1 / (sqrt(1 + rho) - 1).
  return 2.0 * c1 / (std::sqrt(1.0 + target_rho) - 1.0);
}

Csr chem97ztz_like(index_t n, value_t target_rho, value_t diag_spread,
                   std::uint64_t seed) {
  require_positive(n, "chem97ztz_like");
  if (target_rho <= 0.0 || target_rho >= 1.0) {
    throw std::invalid_argument("chem97ztz_like: need 0 < rho < 1");
  }
  if (diag_spread < 1.0) {
    throw std::invalid_argument("chem97ztz_like: diag_spread must be >= 1");
  }
  const index_t stride = std::max<index_t>(n / 3, 1);
  const auto build = [&](value_t gamma) {
    Coo coo(n, n);
    for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0);
    for (index_t i = 0; i < n; ++i) {
      const index_t anti = n - 1 - i;
      // Anti-diagonal coupling: far from the diagonal for most rows.
      if (anti > i) coo.add_symmetric(i, anti, -0.6 * gamma);
      // Long-stride coupling: also outside any moderate diagonal block.
      if (i + stride < n) coo.add_symmetric(i, i + stride, -0.25 * gamma);
    }
    return Csr::from_coo(coo);
  };
  // The unit-diagonal matrix has B = I - A with no diagonal, so rho(B)
  // scales linearly in gamma: one power-iteration measurement fixes it.
  const value_t rho1 = jacobi_spectral_radius(build(1.0)).value;
  if (rho1 <= 0.0) throw std::logic_error("chem97ztz_like: degenerate rho");
  const Csr unit = build(target_rho / rho1);

  // Symmetric rescaling A -> S A S with S = diag(sqrt(d_i)), d_i
  // log-uniform in [1, diag_spread]. D^{-1}A is similar under this
  // transform, so the Jacobi/async spectral radii are untouched.
  Rng rng(seed);
  Vector sqrt_d(static_cast<std::size_t>(n));
  const value_t log_spread = std::log(diag_spread);
  for (auto& v : sqrt_d) v = std::exp(0.5 * rng.uniform(0.0, log_spread));
  Coo scaled(n, n);
  scaled.reserve(static_cast<std::size_t>(unit.nnz()));
  for (index_t i = 0; i < n; ++i) {
    const auto cols = unit.row_cols(i);
    const auto vals = unit.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      // (s_i * s_j) first: the product is computed identically for
      // (i, j) and (j, i), keeping the result bitwise symmetric.
      scaled.add(i, cols[k], (sqrt_d[i] * sqrt_d[cols[k]]) * vals[k]);
    }
  }
  return Csr::from_coo(scaled);
}

Csr random_spd(index_t n, index_t row_degree, value_t dominance,
               std::uint64_t seed) {
  require_positive(n, "random_spd");
  if (row_degree < 0 || dominance <= 1.0) {
    throw std::invalid_argument(
        "random_spd: need row_degree >= 0 and dominance > 1");
  }
  Rng rng(seed);
  Coo coo(n, n);
  // Symmetric off-diagonal pattern.
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = 0; k < row_degree; ++k) {
      index_t j = rng.uniform_int(0, n - 1);
      if (j == i) continue;
      coo.add_symmetric(i, j, rng.uniform(-1.0, 1.0));
    }
  }
  // Diagonal: strictly dominant row sums (computed on the canonical
  // duplicate-summed matrix).
  Csr off = Csr::from_coo(coo);
  Coo full = off.to_coo();
  for (index_t i = 0; i < n; ++i) {
    value_t row_abs = 0.0;
    for (value_t v : off.row_vals(i)) row_abs += std::abs(v);
    full.add(i, i, std::max(row_abs, value_t{1.0}) * dominance);
  }
  return Csr::from_coo(full);
}

Csr anisotropic_laplacian(index_t m, value_t eps, value_t c) {
  require_positive(m, "anisotropic_laplacian");
  if (eps <= 0.0) {
    throw std::invalid_argument("anisotropic_laplacian: eps must be > 0");
  }
  const index_t n = m * m;
  Coo coo(n, n);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < m; ++j) {
      const index_t row = grid_index(m, i, j);
      coo.add(row, row, 2.0 * eps + 2.0 + c);
      // j-direction (stride 1, stays inside contiguous row blocks).
      if (j + 1 < m) coo.add(row, grid_index(m, i, j + 1), -1.0);
      if (j > 0) coo.add(row, grid_index(m, i, j - 1), -1.0);
      // i-direction (stride m, crosses blocks), weighted by eps.
      if (i + 1 < m) coo.add(row, grid_index(m, i + 1, j), -eps);
      if (i > 0) coo.add(row, grid_index(m, i - 1, j), -eps);
    }
  }
  return Csr::from_coo(coo);
}

Csr poisson1d(index_t n) {
  require_positive(n, "poisson1d");
  Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < n) coo.add_symmetric(i, i + 1, -1.0);
  }
  return Csr::from_coo(coo);
}

}  // namespace bars
