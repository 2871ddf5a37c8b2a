#include "backend/block_jacobi_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/jacobi.hpp"
#include "matrices/generators.hpp"
#include "sparse/coo.hpp"
#include "stats/rng.hpp"

namespace bars {
namespace {

/// Diagonally dominant matrix with a seeded random pattern: up to five
/// off-diagonal entries per row, plus couplings to columns 0 and n - 1.
Csr random_pattern(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Coo c(n, n);
  for (index_t i = 0; i < n; ++i) {
    value_t off = 0.0;
    const auto add = [&](index_t j) {
      if (j == i) return;
      const value_t v = -rng.uniform(0.1, 1.0);
      c.add(i, j, v);
      off -= v;
    };
    const index_t count = rng.uniform_int(0, 5);
    for (index_t t = 0; t < count; ++t) add(rng.uniform_int(0, n - 1));
    if (i % 5 == 2) add(0);
    if (i % 7 == 3) add(n - 1);
    c.add(i, i, off + 1.0);
  }
  return Csr::from_coo(c);
}

/// Sorted unique columns of rows [lo, hi) that fall outside [lo, hi).
std::vector<index_t> reference_halo(const Csr& a, index_t lo, index_t hi) {
  std::vector<index_t> h;
  for (index_t i = lo; i < hi; ++i) {
    for (index_t j : a.row_cols(i)) {
      if (j < lo || j >= hi) h.push_back(j);
    }
  }
  std::sort(h.begin(), h.end());
  h.erase(std::unique(h.begin(), h.end()), h.end());
  return h;
}

/// `a` with row r's stored diagonal set to zero.
Csr zero_diagonal_at(const Csr& a, index_t r) {
  std::vector<value_t> vals(a.values().begin(), a.values().end());
  for (index_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
    if (a.col_idx()[k] == r) vals[static_cast<std::size_t>(k)] = 0.0;
  }
  return Csr(a.rows(), a.cols(),
             std::vector<index_t>(a.row_ptr().begin(), a.row_ptr().end()),
             std::vector<index_t>(a.col_idx().begin(), a.col_idx().end()),
             std::move(vals));
}

TEST(BlockKernel, HaloContainsExactlyOffBlockColumns) {
  const Csr a = poisson1d(12);
  const Vector b(12, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(12, 4), 1);
  ASSERT_EQ(k.num_blocks(), 3);
  // Block 1 covers rows 4..7; tridiagonal couples to 3 and 8.
  const auto h = k.halo(1);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 3);
  EXPECT_EQ(h[1], 8);
  // First block only couples forward.
  ASSERT_EQ(k.halo(0).size(), 1u);
  EXPECT_EQ(k.halo(0)[0], 4);
}

TEST(BlockKernel, SingleBlockOneSweepEqualsJacobi) {
  // With one block covering the matrix and local Jacobi sweeps, one
  // update must reproduce one synchronous Jacobi iteration exactly.
  const Csr a = fv_like(6, 0.4);
  const index_t n = a.rows();
  Vector b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.1 * double(i) - 1.0;
  const BlockJacobiKernel k(a, b, RowPartition::uniform(n, n), 1);

  Vector x(static_cast<std::size_t>(n), 0.0);
  gpusim::ExecContext ctx;
  k.update(0, {}, x, ctx);

  SolveOptions o;
  o.max_iters = 1;
  o.tol = 0.0;
  const SolveResult jac = jacobi_solve(a, b, o);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], jac.x[i], 1e-14);
  }
}

TEST(BlockKernel, MultiBlockOneSweepWithFreshHaloEqualsJacobi) {
  // If every block reads a halo snapshot taken from the same x, the
  // union of block updates is exactly one synchronous Jacobi step.
  const Csr a = poisson1d(16);
  const Vector b(16, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(16, 4), 1);

  Vector x(16, 0.25);
  const Vector x_before = x;
  for (index_t blk = 0; blk < k.num_blocks(); ++blk) {
    const auto halo = k.halo(blk);
    Vector hv(halo.size());
    for (std::size_t i = 0; i < halo.size(); ++i) hv[i] = x_before[halo[i]];
    gpusim::ExecContext ctx;
    k.update(blk, hv, x, ctx);
  }
  SolveOptions o;
  o.max_iters = 1;
  o.tol = 0.0;
  const SolveResult jac = jacobi_solve(a, b, o, &x_before);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], jac.x[i], 1e-14);
  }
}

TEST(BlockKernel, LocalItersFreezeGlobalPart) {
  // Eq. (4): with local_iters = 2 the off-block contribution s stays
  // fixed. Verify against a hand-rolled two-sweep computation.
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  const BlockJacobiKernel k2(a, b, RowPartition::uniform(8, 4), 2);

  Vector x(8, 0.0);
  Vector hv{0.0};  // halo of block 0 is row 4, value 0
  gpusim::ExecContext ctx;
  k2.update(0, hv, x, ctx);

  // Hand computation on rows 0..3 of tridiag(-1,2,-1), b = 1, halo 0:
  // sweep 1: x = (0.5, 0.5, 0.5, 0.5)
  // sweep 2: x0 = (1+0.5)/2 = 0.75, x1 = (1+0.5+0.5)/2 = 1.0, x2 = 1.0,
  //          x3 = (1+0.5+0)/2 = 0.75.
  EXPECT_NEAR(x[0], 0.75, 1e-14);
  EXPECT_NEAR(x[1], 1.0, 1e-14);
  EXPECT_NEAR(x[2], 1.0, 1e-14);
  EXPECT_NEAR(x[3], 0.75, 1e-14);
  EXPECT_DOUBLE_EQ(x[4], 0.0);  // other block untouched
}

TEST(BlockKernel, LocalGaussSeidelDiffersFromLocalJacobi) {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  const BlockJacobiKernel kj(a, b, RowPartition::uniform(8, 8), 1,
                             LocalSweep::kJacobi);
  const BlockJacobiKernel kg(a, b, RowPartition::uniform(8, 8), 1,
                             LocalSweep::kGaussSeidel);
  Vector xj(8, 0.0), xg(8, 0.0);
  gpusim::ExecContext ctx;
  kj.update(0, {}, xj, ctx);
  kg.update(0, {}, xg, ctx);
  EXPECT_DOUBLE_EQ(xj[1], 0.5);
  EXPECT_DOUBLE_EQ(xg[1], 0.75);  // GS uses updated x0 = 0.5
}

TEST(BlockKernel, FaultMaskFreezesComponents) {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(8, 8), 1);
  Vector x(8, 0.25);
  std::vector<std::uint8_t> mask(8, 0);
  mask[2] = 1;
  mask[5] = 1;
  gpusim::ExecContext ctx;
  ctx.failed_components = &mask;
  k.update(0, {}, x, ctx);
  EXPECT_DOUBLE_EQ(x[2], 0.25);  // frozen
  EXPECT_DOUBLE_EQ(x[5], 0.25);
  EXPECT_NE(x[1], 0.25);  // healthy components updated
}

TEST(BlockKernel, LocalOmegaDampsUpdate) {
  const Csr a = poisson1d(4);
  const Vector b(4, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(4, 4), 1,
                            LocalSweep::kJacobi, 0.5);
  Vector x(4, 0.0);
  gpusim::ExecContext ctx;
  k.update(0, {}, x, ctx);
  EXPECT_DOUBLE_EQ(x[0], 0.25);  // half of the Jacobi step 0.5
}

TEST(BlockKernel, RejectsInvalidConstruction) {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  EXPECT_THROW(
      BlockJacobiKernel(a, b, RowPartition::uniform(7, 4), 1),
      std::invalid_argument);
  EXPECT_THROW(BlockJacobiKernel(a, b, RowPartition::uniform(8, 4), 0),
               std::invalid_argument);
  EXPECT_THROW(BlockJacobiKernel(a, b, RowPartition::uniform(8, 4), 1,
                                 LocalSweep::kJacobi, 2.5),
               std::invalid_argument);
  Coo zc(2, 2);
  zc.add(0, 1, 1.0);
  zc.add(1, 0, 1.0);
  const Vector b2(2, 1.0);
  EXPECT_THROW(BlockJacobiKernel(Csr::from_coo(zc), b2,
                                 RowPartition::uniform(2, 2), 1),
               std::invalid_argument);
}

TEST(BlockKernel, HaloAndSplitMatchBruteForceOnRandomPatterns) {
  // Sizes around the 64-column words of the halo bitmap; block sizes
  // giving one-row blocks and a ragged last block; every overlap 0..3.
  for (const index_t n : {1, 2, 63, 64, 65, 130, 203}) {
    const Csr a = random_pattern(n, 1000 + static_cast<std::uint64_t>(n));
    Vector b(static_cast<std::size_t>(n));
    Vector x0(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      b[i] = 1.0 + 0.01 * static_cast<value_t>(i);
      x0[i] = std::sin(static_cast<value_t>(i));
    }
    for (const index_t bs : {1, 7, 64}) {
      for (index_t overlap = 0; overlap <= 3; ++overlap) {
        const BlockJacobiKernel k(a, b, RowPartition::uniform(n, bs), 1,
                                  LocalSweep::kJacobi, 1.0, overlap);
        for (index_t blk = 0; blk < k.num_blocks(); ++blk) {
          const auto [lo, hi] = k.rows(blk);
          const auto halo = k.halo(blk);
          ASSERT_EQ(std::vector<index_t>(halo.begin(), halo.end()),
                    reference_halo(a, std::max<index_t>(lo - overlap, 0),
                                   std::min<index_t>(hi + overlap, n)))
              << "n=" << n << " bs=" << bs << " overlap=" << overlap
              << " block=" << blk;
          // One sweep from a fresh snapshot is one Jacobi step on the
          // owned rows — only if every halo position names its column.
          Vector hv(halo.size());
          for (std::size_t i = 0; i < halo.size(); ++i) hv[i] = x0[halo[i]];
          Vector x = x0;
          k.update(blk, hv, x, {});
          for (index_t i = lo; i < hi; ++i) {
            value_t acc = b[i];
            const auto cols = a.row_cols(i);
            const auto vals = a.row_vals(i);
            for (std::size_t e = 0; e < cols.size(); ++e) {
              if (cols[e] != i) acc -= vals[e] * x0[cols[e]];
            }
            const value_t ref = acc / a.at(i, i);
            EXPECT_NEAR(x[i], ref, 1e-12 * std::max(1.0, std::abs(ref)))
                << "n=" << n << " bs=" << bs << " overlap=" << overlap
                << " row=" << i;
          }
        }
      }
    }
  }
}

TEST(BlockKernel, ZeroDiagonalThrowsInAnyBlock) {
  const Csr a = zero_diagonal_at(random_pattern(130, 7), 77);
  const Vector b(130, 1.0);
  for (index_t overlap = 0; overlap <= 3; ++overlap) {
    EXPECT_THROW(BlockJacobiKernel(a, b, RowPartition::uniform(130, 64), 1,
                                   LocalSweep::kJacobi, 1.0, overlap),
                 std::invalid_argument)
        << "overlap=" << overlap;
  }
}

TEST(BlockKernel, RowsReportsPartition) {
  const Csr a = poisson1d(10);
  const Vector b(10, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(10, 4), 1);
  EXPECT_EQ(k.rows(0), (std::pair<index_t, index_t>{0, 4}));
  EXPECT_EQ(k.rows(2), (std::pair<index_t, index_t>{8, 10}));
  EXPECT_EQ(k.num_rows(), 10);
}

}  // namespace
}  // namespace bars
