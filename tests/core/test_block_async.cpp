#include "core/block_async.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "backend/block_jacobi_kernel.hpp"
#include "core/gauss_seidel.hpp"
#include "core/jacobi.hpp"
#include "matrices/generators.hpp"
#include "sparse/dense.hpp"

namespace bars {
namespace {

TEST(BlockAsync, ConvergesOnFvLike) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.block_size = 32;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-12;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_LE(relative_residual(a, b, r.solve.x), 1e-12);
}

TEST(BlockAsync, SolutionMatchesDirectSolve) {
  const Csr a = fv_like(10, 0.6);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.3 * double(i));
  BlockAsyncOptions o;
  o.block_size = 25;
  o.local_iters = 3;
  o.solve.max_iters = 3000;
  o.solve.tol = 1e-13;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok());
  const Vector xd = Dense::from_csr(a).solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(r.solve.x[i], xd[i], 1e-9);
  }
}

TEST(BlockAsync, Async1RateSimilarToJacobi) {
  // Paper Fig. 6: async-(1) converges at roughly the Jacobi rate.
  const Csr a = fv_like(24, 0.3);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  SolveOptions so;
  so.max_iters = 5000;
  so.tol = 1e-10;
  const SolveResult jac = jacobi_solve(a, b, so);
  BlockAsyncOptions o;
  o.solve = so;
  o.block_size = 64;
  o.local_iters = 1;
  const BlockAsyncResult as = block_async_solve(a, b, o);
  ASSERT_TRUE(jac.ok());
  ASSERT_TRUE(as.solve.ok());
  const double ratio = static_cast<double>(as.solve.iterations) /
                       static_cast<double>(jac.iterations);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 1.6);
}

TEST(BlockAsync, Async5BeatsGaussSeidelPerGlobalIteration) {
  // Paper Fig. 7b-d: on fv-type systems async-(5) converges in fewer
  // global iterations than Gauss-Seidel.
  const Csr a = fv_like(31, 0.25);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  SolveOptions so;
  so.max_iters = 10000;
  so.tol = 1e-10;
  const SolveResult gs = gauss_seidel_solve(a, b, so);
  BlockAsyncOptions o;
  o.solve = so;
  o.block_size = 128;
  o.local_iters = 5;
  const BlockAsyncResult as = block_async_solve(a, b, o);
  ASSERT_TRUE(gs.ok());
  ASSERT_TRUE(as.solve.ok());
  EXPECT_LT(as.solve.iterations, gs.iterations);
}

TEST(BlockAsync, MoreLocalItersFewerGlobalIters) {
  const Csr a = fv_like(20, 0.4);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.solve.max_iters = 5000;
  o.solve.tol = 1e-10;
  o.block_size = 100;
  index_t prev = 0;
  for (index_t k : {1, 3, 5}) {
    o.local_iters = k;
    const BlockAsyncResult r = block_async_solve(a, b, o);
    ASSERT_TRUE(r.solve.ok()) << "k=" << k;
    if (prev > 0) EXPECT_LT(r.solve.iterations, prev) << "k=" << k;
    prev = r.solve.iterations;
  }
}

TEST(BlockAsync, DivergesOnStructuralLike) {
  const index_t m = 12;
  const Csr a = structural_like(m, structural_diag_for_rho(m, 2.65));
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.block_size = 36;
  o.solve.max_iters = 3000;
  o.solve.divergence_limit = 1e10;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.status == bars::SolverStatus::kDiverged);
}

TEST(BlockAsync, VirtualTimeUsesCalibration) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.matrix_name = "fv1";
  o.local_iters = 5;
  o.block_size = 64;
  o.solve.max_iters = 20;
  o.solve.tol = 0.0;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  ASSERT_GE(r.solve.time_history.size(), 2u);
  // Global iteration time for fv1 async-(5) is ~13 ms (Table 4/5 scale).
  const value_t per_iter =
      r.solve.time_history.back() /
      static_cast<value_t>(r.solve.time_history.size() - 1);
  EXPECT_NEAR(per_iter, 0.0129, 0.005);
}

TEST(BlockAsync, SeedReproducibility) {
  const Csr a = trefethen(200);
  const Vector b(200, 1.0);
  BlockAsyncOptions o;
  o.block_size = 32;
  o.seed = 4242;
  o.solve.max_iters = 30;
  o.solve.tol = 0.0;
  const auto r1 = block_async_solve(a, b, o);
  const auto r2 = block_async_solve(a, b, o);
  EXPECT_EQ(r1.solve.x, r2.solve.x);
}

TEST(BlockAsync, VariationAcrossSeedsLargerForOffBlockHeavyMatrix) {
  // Paper Section 4.1: run-to-run variation is much larger for
  // Trefethen-type (large off-block mass) than fv-type matrices.
  const auto spread = [](const Csr& a, index_t iters) {
    const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
    value_t lo = 1e300, hi = 0.0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      BlockAsyncOptions o;
      o.block_size = 400;
      o.local_iters = 5;
      o.seed = seed;
      o.solve.max_iters = iters;
      o.solve.tol = 0.0;
      const auto r = block_async_solve(a, b, o);
      const value_t res = r.solve.final_residual;
      lo = std::min(lo, res);
      hi = std::max(hi, res);
    }
    return (hi - lo) / hi;
  };
  // Larger instances so the block decomposition is representative: for
  // the fv grid almost everything is inside the 400-row blocks, for
  // Trefethen the power-of-two couplings always cross blocks.
  const value_t fv_spread =
      spread(fv_like(40, fv_reaction_for_rho(40, 0.8541)), 10);
  const value_t tref_spread = spread(trefethen(800), 10);
  EXPECT_GT(tref_spread, fv_spread);
}

TEST(BlockAsync, RejectsBadBlockSize) {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  BlockAsyncOptions o;
  o.block_size = 0;
  EXPECT_THROW((void)block_async_solve(a, b, o), std::invalid_argument);
}

TEST(BlockAsync, PrebuiltKernelRunIsBitIdentical) {
  // The amortization contract the service plan cache rides on: reusing
  // one kernel across right-hand sides reproduces the standalone solve
  // exactly (the executor schedule never depends on values).
  const Csr a = fv_like(9, 0.6);
  BlockAsyncOptions o;
  o.block_size = 20;
  o.local_iters = 2;
  o.solve.max_iters = 3000;
  o.solve.tol = 1e-11;

  std::vector<Vector> bs;
  for (int k = 0; k < 3; ++k) {
    Vector b(static_cast<std::size_t>(a.rows()));
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = std::cos(0.2 * double(i) + double(k));
    }
    bs.push_back(std::move(b));
  }

  BlockJacobiKernel kernel(a, bs.front(),
                           RowPartition::uniform(a.rows(), o.block_size),
                           o.local_iters);
  const std::vector<BlockAsyncResult> multi = block_async_solve_multi(a, bs, o);
  ASSERT_EQ(multi.size(), bs.size());
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const BlockAsyncResult standalone = block_async_solve(a, bs[k], o);
    const BlockAsyncResult reused =
        block_async_solve_with_kernel(a, bs[k], kernel, o);
    ASSERT_TRUE(standalone.solve.ok());
    EXPECT_EQ(standalone.solve.iterations, reused.solve.iterations);
    EXPECT_EQ(standalone.solve.iterations, multi[k].solve.iterations);
    EXPECT_EQ(standalone.solve.final_residual, reused.solve.final_residual);
    EXPECT_EQ(standalone.solve.final_residual, multi[k].solve.final_residual);
    for (std::size_t i = 0; i < standalone.solve.x.size(); ++i) {
      EXPECT_EQ(standalone.solve.x[i], reused.solve.x[i]) << "rhs " << k;
      EXPECT_EQ(standalone.solve.x[i], multi[k].solve.x[i]) << "rhs " << k;
    }
  }
}

TEST(BlockAsync, MultiRejectsEmptyAndMismatched) {
  const Csr a = poisson1d(8);
  EXPECT_THROW((void)block_async_solve_multi(a, {}, {}), std::invalid_argument);
  const std::vector<Vector> bad{Vector(7, 1.0)};
  EXPECT_THROW((void)block_async_solve_multi(a, bad, {}),
               std::invalid_argument);
}

TEST(BlockAsync, BlockExecutionCountsReturned) {
  const Csr a = poisson1d(64);
  const Vector b(64, 1.0);
  BlockAsyncOptions o;
  o.block_size = 16;
  o.solve.max_iters = 10;
  o.solve.tol = 0.0;
  const auto r = block_async_solve(a, b, o);
  ASSERT_EQ(r.block_executions.size(), 4u);
  for (index_t c : r.block_executions) EXPECT_GT(c, 0);
}

// A solve that starts at or below tol stops at boundary 0: no block
// runs, the iterate comes back untouched, and the history holds r0 only.
BlockAsyncOptions boundary0_options() {
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 5;
  o.solve.tol = 1e-12;
  return o;
}

TEST(BlockAsync, ZeroRhsConvergesAtBoundaryZero) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 0.0);
  const BlockAsyncResult r = block_async_solve(a, b, boundary0_options());
  EXPECT_EQ(r.solve.status, SolverStatus::kConverged);
  EXPECT_EQ(r.solve.iterations, 0);
  EXPECT_EQ(r.solve.final_residual, 0.0);
  EXPECT_EQ(r.solve.residual_history.size(), 1U);
  for (index_t c : r.block_executions) EXPECT_EQ(c, 0);
  for (value_t xi : r.solve.x) EXPECT_EQ(xi, 0.0);
}

TEST(BlockAsync, ConvergedWarmStartStopsAtBoundaryZero) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const BlockAsyncOptions o = boundary0_options();
  const BlockAsyncResult cold = block_async_solve(a, b, o);
  ASSERT_EQ(cold.solve.status, SolverStatus::kConverged);
  const BlockAsyncResult warm = block_async_solve(a, b, o, &cold.solve.x);
  EXPECT_EQ(warm.solve.status, SolverStatus::kConverged);
  EXPECT_EQ(warm.solve.iterations, 0);
  EXPECT_EQ(warm.solve.final_residual, relative_residual(a, b, cold.solve.x));
  EXPECT_EQ(warm.solve.x, cold.solve.x);
}

TEST(BlockAsync, NonFiniteRhsDivergesAtBoundaryZero) {
  const Csr a = fv_like(16, 0.5);
  Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  b[3] = std::nan("");
  const BlockAsyncResult r = block_async_solve(a, b, boundary0_options());
  EXPECT_EQ(r.solve.status, SolverStatus::kDiverged);
  EXPECT_EQ(r.solve.iterations, 0);
}

}  // namespace
}  // namespace bars
