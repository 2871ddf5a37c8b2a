#include "matrices/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "eigen/power_iteration.hpp"
#include "matrices/primes.hpp"
#include "sparse/coo.hpp"
#include "sparse/properties.hpp"

namespace bars {
namespace {

TEST(Trefethen, StructureMatchesDefinition) {
  const Csr a = trefethen(20);
  EXPECT_EQ(a.rows(), 20);
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(4, 4), 11.0);  // 5th prime
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 4), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 8), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 16), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 3), 0.0);   // 3 is not a power of two
}

/// Both generators emit each row in column order. Building the same
/// entries in their earlier, unsorted emission order through
/// Csr::from_coo's sorting path must give the same arrays bit for bit.
void expect_same_arrays(const Csr& a, const Csr& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
  EXPECT_TRUE(std::ranges::equal(a.values(), b.values()));
}

TEST(Trefethen, RowMajorEmissionMatchesSortedBuild) {
  for (const index_t n : {1, 2, 3, 17, 64, 2000}) {
    SCOPED_TRACE(n);
    const std::vector<index_t> primes = first_primes(n);
    Coo coo(n, n);
    for (index_t i = 0; i < n; ++i) {
      coo.add(i, i, static_cast<value_t>(primes[i]));
      for (index_t off = 1; off < n; off *= 2) {
        if (i + off < n) coo.add_symmetric(i, i + off, 1.0);
      }
    }
    expect_same_arrays(trefethen(n), Csr::from_coo(coo));
  }
}

TEST(FvLike, RowMajorEmissionMatchesSortedBuild) {
  for (const index_t m : {1, 2, 5, 40}) {
    SCOPED_TRACE(m);
    const value_t c = 0.3;
    Coo coo(m * m, m * m);
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < m; ++j) {
        const index_t row = i * m + j;
        coo.add(row, row, 4.0 + c);
        if (i + 1 < m) coo.add(row, row + m, -1.0);
        if (i > 0) coo.add(row, row - m, -1.0);
        if (j + 1 < m) coo.add(row, row + 1, -1.0);
        if (j > 0) coo.add(row, row - 1, -1.0);
      }
    }
    expect_same_arrays(fv_like(m, c), Csr::from_coo(coo));
  }
}

TEST(Trefethen, NnzMatchesUfmcFor2000) {
  // UFMC reports 41,906 stored entries for Trefethen_2000.
  EXPECT_EQ(trefethen(2000).nnz(), 41906);
}

TEST(Trefethen, JacobiRadiusNearPaperValue) {
  // Paper Table 1: rho(M) = 0.8601 for both Trefethen sizes.
  const auto r = jacobi_spectral_radius(trefethen(2000));
  EXPECT_NEAR(r.value, 0.8601, 5e-3);
}

TEST(FvLike, StencilAndDimensions) {
  const Csr a = fv_like(4, 0.25);
  EXPECT_EQ(a.rows(), 16);
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.25);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 4), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 5), 0.0);  // no diagonal coupling
}

TEST(FvLike, ReactionCalibrationHitsRho) {
  for (const value_t target : {0.70, 0.8541, 0.9993}) {
    const index_t m = 24;
    const Csr a = fv_like(m, fv_reaction_for_rho(m, target));
    EXPECT_NEAR(jacobi_spectral_radius(a).value, target, 2e-4)
        << "target " << target;
  }
}

TEST(FvLike, ReactionCalibrationRejectsBadRho) {
  EXPECT_THROW((void)fv_reaction_for_rho(10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fv_reaction_for_rho(10, 1.0), std::invalid_argument);
}

TEST(StructuralLike, TensorStencil) {
  const value_t a0 = 3.0;
  const Csr a = structural_like(3, a0);
  EXPECT_EQ(a.rows(), 9);
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a.at(4, 4), 9.0);  // a*a center
  EXPECT_DOUBLE_EQ(a.at(4, 1), 3.0);  // a
  EXPECT_DOUBLE_EQ(a.at(4, 0), 1.0);  // corner
}

TEST(StructuralLike, RhoCalibration) {
  const index_t m = 20;
  const value_t a0 = structural_diag_for_rho(m, 2.65);
  EXPECT_NEAR(jacobi_spectral_radius(structural_like(m, a0)).value, 2.65,
              1e-3);
}

TEST(StructuralLike, RemainsSpd) {
  const index_t m = 16;
  const Csr a = structural_like(m, structural_diag_for_rho(m, 2.65));
  // SPD <=> Gershgorin may fail, so check lambda_min via the tensor
  // closed form: (a - 2cos(pi/(m+1)))^2 > 0 always; verify numerically
  // that x^T A x > 0 for a few vectors.
  Vector x(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.7 * static_cast<double>(i) + 0.3);
  }
  Vector ax(x.size());
  a.spmv(x, ax);
  value_t xax = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) xax += x[i] * ax[i];
  EXPECT_GT(xax, 0.0);
}

TEST(Chem97Like, RhoCalibrationAndStructure) {
  const Csr a = chem97ztz_like(301, 0.7889);
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_NEAR(jacobi_spectral_radius(a).value, 0.7889, 1e-3);
  // Key reproduced property: essentially all off-diagonal entries are
  // far from the diagonal (the paper's reason async-(k) cannot
  // accelerate Chem97ZtZ — the local blocks are close to diagonal).
  index_t offdiag = 0, near_diag = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      if (j == i) continue;
      ++offdiag;
      if (std::abs(i - j) < 64) ++near_diag;
    }
  }
  ASSERT_GT(offdiag, 0);
  EXPECT_LT(static_cast<double>(near_diag) / static_cast<double>(offdiag),
            0.25);
}

TEST(RandomSpd, IsSymmetricAndDominant) {
  const Csr a = random_spd(80, 5, 1.5, 99);
  EXPECT_TRUE(a.is_symmetric(1e-12));
  EXPECT_TRUE(diagonal_dominance(a).strictly_dominant);
}

TEST(RandomSpd, DeterministicInSeed) {
  const Csr a = random_spd(30, 3, 2.0, 5);
  const Csr b = random_spd(30, 3, 2.0, 5);
  EXPECT_EQ(a.nnz(), b.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) EXPECT_DOUBLE_EQ(a.at(i, j), b.at(i, j));
  }
}

TEST(AnisotropicLaplacian, WeightsDirections) {
  const Csr a = anisotropic_laplacian(4, 0.1, 0.0);
  EXPECT_DOUBLE_EQ(a.at(5, 6), -1.0);   // j-direction
  EXPECT_DOUBLE_EQ(a.at(5, 9), -0.1);   // i-direction (stride m)
  EXPECT_NEAR(a.at(5, 5), 2.2, 1e-14);
}

TEST(Poisson1d, Structure) {
  const Csr a = poisson1d(5);
  EXPECT_EQ(a.nnz(), 13);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), -1.0);
}

TEST(Generators, RejectBadArguments) {
  EXPECT_THROW((void)trefethen(0), std::invalid_argument);
  EXPECT_THROW((void)fv_like(0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)structural_diag_for_rho(10, 3.5),
               std::invalid_argument);
  EXPECT_THROW((void)chem97ztz_like(100, 1.5), std::invalid_argument);
  EXPECT_THROW((void)random_spd(10, 2, 1.0, 1), std::invalid_argument);
  EXPECT_THROW((void)anisotropic_laplacian(4, 0.0, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace bars
