/// Tests for overlapping subdomains (restricted additive Schwarz
/// extension of the block kernel).

#include <gtest/gtest.h>

#include "backend/block_jacobi_kernel.hpp"
#include "core/block_async.hpp"
#include "core/block_jacobi.hpp"
#include "matrices/generators.hpp"
#include "sparse/dense.hpp"

namespace bars {
namespace {

TEST(Overlap, KernelWorkRangesExtendButOwnedStay) {
  const Csr a = poisson1d(20);
  const Vector b(20, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(20, 5), 1,
                            LocalSweep::kJacobi, 1.0, /*overlap=*/2);
  EXPECT_EQ(k.overlap(), 2);
  // Owned ranges are the partition blocks.
  EXPECT_EQ(k.rows(1), (std::pair<index_t, index_t>{5, 10}));
  // The halo of block 1 is the neighbors of [3, 12): rows 2 and 12.
  const auto h = k.halo(1);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2);
  EXPECT_EQ(h[1], 12);
}

TEST(Overlap, BoundaryBlocksClampToMatrix) {
  const Csr a = poisson1d(12);
  const Vector b(12, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(12, 4), 1,
                            LocalSweep::kJacobi, 1.0, 3);
  // First block works on [0, 7): halo is row 7 only.
  ASSERT_EQ(k.halo(0).size(), 1u);
  EXPECT_EQ(k.halo(0)[0], 7);
}

TEST(Overlap, CommitTouchesOnlyOwnedRows) {
  const Csr a = poisson1d(12);
  const Vector b(12, 1.0);
  const BlockJacobiKernel k(a, b, RowPartition::uniform(12, 4), 2,
                            LocalSweep::kJacobi, 1.0, 2);
  Vector x(12, 0.25);
  const auto halo = k.halo(1);
  Vector hv(halo.size(), 0.25);
  gpusim::ExecContext ctx;
  k.update(1, hv, x, ctx);
  // Rows outside [4, 8) unchanged.
  for (index_t i = 0; i < 12; ++i) {
    if (i >= 4 && i < 8) {
      EXPECT_NE(x[i], 0.25) << i;
    } else {
      EXPECT_DOUBLE_EQ(x[i], 0.25) << i;
    }
  }
}

TEST(Overlap, AcceleratesAsyncConvergenceOnBandedSystem) {
  // Overlap pulls boundary couplings into the subdomain solves, so
  // fewer global iterations are needed on banded systems.
  const Csr a = fv_like(16, 0.3);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  index_t iters_no_overlap = 0, iters_overlap = 0;
  for (int pass = 0; pass < 2; ++pass) {
    BlockAsyncOptions o;
    o.block_size = 64;
    o.local_iters = 5;
    o.overlap = pass == 0 ? 0 : 16;
    o.solve.max_iters = 3000;
    o.solve.tol = 1e-10;
    const BlockAsyncResult r = block_async_solve(a, b, o);
    ASSERT_TRUE(r.solve.ok());
    (pass == 0 ? iters_no_overlap : iters_overlap) = r.solve.iterations;
  }
  EXPECT_LT(iters_overlap, iters_no_overlap);
}

TEST(Overlap, SolutionStillMatchesDirectSolve) {
  const Csr a = fv_like(9, 0.7);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.1 * double(i) - 0.5;
  BlockAsyncOptions o;
  o.block_size = 27;
  o.local_iters = 3;
  o.overlap = 9;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-12;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok());
  const Vector xd = Dense::from_csr(a).solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(r.solve.x[i], xd[i], 1e-9);
  }
}

TEST(Overlap, SyncBlockJacobiBenefitsToo) {
  const Csr a = fv_like(14, 0.3);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockJacobiOptions o0;
  o0.block_size = 49;
  o0.local_iters = 4;
  o0.solve.max_iters = 3000;
  o0.solve.tol = 1e-10;
  BlockJacobiOptions o1 = o0;
  o1.overlap = 14;
  const SolveResult r0 = block_jacobi_solve(a, b, o0);
  const SolveResult r1 = block_jacobi_solve(a, b, o1);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_LE(r1.iterations, r0.iterations);
}

TEST(Overlap, NegativeOverlapRejected) {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  EXPECT_THROW(BlockJacobiKernel(a, b, RowPartition::uniform(8, 4), 1,
                                 LocalSweep::kJacobi, 1.0, -1),
               std::invalid_argument);
}

}  // namespace
}  // namespace bars
