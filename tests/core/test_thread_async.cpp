#include "core/thread_async.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "matrices/generators.hpp"
#include "sparse/dense.hpp"

namespace bars {
namespace {

TEST(ThreadAsync, ConvergesOnStrictlyDominantSystem) {
  const Csr a = random_spd(200, 4, 2.0, 321);
  const Vector b(200, 1.0);
  ThreadAsyncOptions o;
  o.block_size = 32;
  o.num_threads = 4;
  o.solve.max_iters = 5000;
  o.solve.tol = 1e-11;
  const ThreadAsyncResult r = thread_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok()) << to_string(r.solve.status) << " after "
                            << r.solve.iterations << " iterations";
  EXPECT_LE(relative_residual(a, b, r.solve.x), 1e-10);
}

TEST(ThreadAsync, SolutionMatchesDirectSolve) {
  const Csr a = fv_like(8, 0.8);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 - 0.02 * double(i);
  ThreadAsyncOptions o;
  o.block_size = 16;
  o.num_threads = 3;
  o.solve.max_iters = 10000;
  o.solve.tol = 1e-12;
  const ThreadAsyncResult r = thread_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok()) << to_string(r.solve.status) << " after "
                            << r.solve.iterations << " iterations";
  const Vector xd = Dense::from_csr(a).solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(r.solve.x[i], xd[i], 1e-8);
  }
}

TEST(ThreadAsync, LocalItersAccelerateConvergence) {
  const Csr a = fv_like(12, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  ThreadAsyncOptions o1;
  o1.block_size = 36;
  o1.num_threads = 2;
  o1.local_iters = 1;
  o1.solve.max_iters = 4000;
  o1.solve.tol = 1e-10;
  ThreadAsyncOptions o5 = o1;
  o5.local_iters = 5;
  const auto r1 = thread_async_solve(a, b, o1);
  const auto r5 = thread_async_solve(a, b, o5);
  ASSERT_TRUE(r1.solve.ok()) << to_string(r1.solve.status);
  ASSERT_TRUE(r5.solve.ok()) << to_string(r5.solve.status);
  EXPECT_LT(r5.solve.iterations, r1.solve.iterations);
}

TEST(ThreadAsync, SingleThreadStillWorks) {
  const Csr a = poisson1d(50);
  const Vector b(50, 1.0);
  ThreadAsyncOptions o;
  o.block_size = 10;
  o.num_threads = 1;
  o.solve.max_iters = 20000;
  o.solve.tol = 1e-11;
  const auto r = thread_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
}

TEST(ThreadAsync, EveryBlockExecutes) {
  const Csr a = poisson1d(64);
  const Vector b(64, 1.0);
  ThreadAsyncOptions o;
  o.block_size = 8;
  o.num_threads = 4;
  o.solve.max_iters = 50;
  o.solve.tol = 0.0;
  const auto r = thread_async_solve(a, b, o);
  for (index_t c : r.block_executions) EXPECT_GT(c, 0);
  index_t sum = 0;
  for (index_t c : r.block_executions) sum += c;
  EXPECT_EQ(sum, r.total_block_executions);
}

// A solve that starts at or below tol, or non-finite, stops at boundary
// 0 before any worker starts: no block runs and the iterate comes back
// untouched.
ThreadAsyncOptions boundary0_options() {
  ThreadAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 5;
  o.num_threads = 3;
  o.solve.max_iters = 10000;
  o.solve.tol = 1e-12;
  return o;
}

void expect_no_block_ran(const ThreadAsyncResult& r) {
  EXPECT_EQ(r.solve.iterations, 0);
  EXPECT_EQ(r.total_block_executions, 0);
  for (index_t c : r.block_executions) EXPECT_EQ(c, 0);
}

TEST(ThreadAsync, ZeroRhsConvergesAtBoundaryZero) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 0.0);
  const ThreadAsyncResult r = thread_async_solve(a, b, boundary0_options());
  EXPECT_EQ(r.solve.status, SolverStatus::kConverged);
  EXPECT_EQ(r.solve.final_residual, 0.0);
  EXPECT_EQ(r.solve.residual_history.size(), 1U);
  expect_no_block_ran(r);
  for (value_t xi : r.solve.x) EXPECT_EQ(xi, 0.0);
}

TEST(ThreadAsync, ConvergedWarmStartStopsAtBoundaryZero) {
  const Csr a = fv_like(16, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const ThreadAsyncOptions o = boundary0_options();
  const ThreadAsyncResult cold = thread_async_solve(a, b, o);
  ASSERT_EQ(cold.solve.status, SolverStatus::kConverged);
  const ThreadAsyncResult warm = thread_async_solve(a, b, o, &cold.solve.x);
  EXPECT_EQ(warm.solve.status, SolverStatus::kConverged);
  EXPECT_EQ(warm.solve.final_residual, relative_residual(a, b, cold.solve.x));
  EXPECT_EQ(warm.solve.x, cold.solve.x);
  expect_no_block_ran(warm);
}

TEST(ThreadAsync, NonFiniteRhsDivergesAtBoundaryZero) {
  const Csr a = fv_like(16, 0.5);
  Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  b[3] = std::nan("");
  const ThreadAsyncResult r = thread_async_solve(a, b, boundary0_options());
  EXPECT_EQ(r.solve.status, SolverStatus::kDiverged);
  expect_no_block_ran(r);
}

TEST(ThreadAsync, RejectsDimensionMismatch) {
  const Csr a = poisson1d(4);
  const Vector b(5, 1.0);
  EXPECT_THROW((void)thread_async_solve(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace bars
