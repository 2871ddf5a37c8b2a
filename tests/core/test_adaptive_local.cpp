/// Tests for adaptive per-block local iteration counts.

#include <gtest/gtest.h>

#include "backend/block_jacobi_kernel.hpp"
#include "core/block_async.hpp"
#include "matrices/generators.hpp"
#include "sparse/dense.hpp"

namespace bars {
namespace {

TEST(AdaptiveLocal, HeuristicBoundsAndMonotonicity) {
  const Csr a = fv_like(16, 0.4);
  const RowPartition part = RowPartition::uniform(a.rows(), 64);
  const auto counts = adaptive_local_iter_counts(a, part, 5);
  ASSERT_EQ(static_cast<index_t>(counts.size()), part.num_blocks());
  for (index_t k : counts) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 5);
  }
}

TEST(AdaptiveLocal, ChemLikeBlocksGetOneSweep) {
  // All off-diagonal mass is off-block => f_b = 0 => k_b = 1 everywhere.
  const Csr a = chem97ztz_like(256, 0.6, /*diag_spread=*/1.0);
  const RowPartition part = RowPartition::uniform(a.rows(), 64);
  const auto counts = adaptive_local_iter_counts(a, part, 5);
  for (index_t k : counts) EXPECT_EQ(k, 1);
}

TEST(AdaptiveLocal, SingleBlockGetsMaxSweeps) {
  // Everything in-block => f = 1 => k = max_k.
  const Csr a = fv_like(8, 0.5);
  const RowPartition part = RowPartition::uniform(a.rows(), a.rows());
  const auto counts = adaptive_local_iter_counts(a, part, 7);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 7);
}

TEST(AdaptiveLocal, KernelUsesPerBlockCounts) {
  const Csr a = poisson1d(12);
  const Vector b(12, 1.0);
  BlockJacobiKernel k(a, b, RowPartition::uniform(12, 4), 5);
  EXPECT_EQ(k.block_local_iters(0), 5);
  k.set_per_block_iters({1, 2, 3});
  EXPECT_EQ(k.block_local_iters(0), 1);
  EXPECT_EQ(k.block_local_iters(2), 3);
  EXPECT_THROW(k.set_per_block_iters({1, 2}), std::invalid_argument);
  EXPECT_THROW(k.set_per_block_iters({1, 0, 2}), std::invalid_argument);
}

TEST(AdaptiveLocal, SolveStillCorrect) {
  const Csr a = fv_like(10, 0.6);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.2 + 0.03 * double(i);
  BlockAsyncOptions o;
  o.block_size = 25;
  o.local_iters = 5;
  o.adaptive_local_iters = true;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-12;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok());
  const Vector xd = Dense::from_csr(a).solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(r.solve.x[i], xd[i], 1e-9);
  }
}

TEST(AdaptiveLocal, MatchesUniformOnChemStructure) {
  // Where sweeps cannot help, adaptive (all 1s) must converge in the
  // same number of global iterations as uniform async-(5).
  const Csr a = chem97ztz_like(600, 0.7, /*diag_spread=*/1.0);
  const Vector b(600, 1.0);
  BlockAsyncOptions u;
  u.block_size = 128;
  u.local_iters = 5;
  u.solve.max_iters = 2000;
  u.solve.tol = 1e-10;
  BlockAsyncOptions ad = u;
  ad.adaptive_local_iters = true;
  const auto ru = block_async_solve(a, b, u);
  const auto ra = block_async_solve(a, b, ad);
  ASSERT_TRUE(ru.solve.ok());
  ASSERT_TRUE(ra.solve.ok());
  const double ratio = static_cast<double>(ra.solve.iterations) /
                       static_cast<double>(ru.solve.iterations);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(AdaptiveLocal, RejectsBadMaxK) {
  const Csr a = poisson1d(8);
  EXPECT_THROW((void)adaptive_local_iter_counts(
                   a, RowPartition::uniform(8, 4), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace bars
