#include <gtest/gtest.h>

#include "core/block_async.hpp"
#include "matrices/generators.hpp"

namespace bars {
namespace {

Csr test_matrix() { return fv_like(20, 0.4); }

BlockAsyncOptions base_options() {
  BlockAsyncOptions o;
  o.block_size = 50;
  o.local_iters = 5;
  o.solve.max_iters = 400;
  o.solve.tol = 1e-13;
  o.seed = 7;
  // Clean reference runs are compared boundary by boundary with fault
  // runs, whose residual histories are always exact.
  o.exact_history = true;
  return o;
}

TEST(FaultTolerance, NoRecoveryStagnates) {
  // Paper Fig. 10: without reassigning failed components the residual
  // stalls at a significant level.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/10, /*fraction=*/0.25, /*recover_after=*/std::nullopt);
  const auto r = block_async_solve(a, b, o);
  EXPECT_FALSE(r.solve.ok());
  EXPECT_GT(r.solve.final_residual, 1e-6);
}

TEST(FaultTolerance, RecoveryRetrievesConvergence) {
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/10, /*fraction=*/0.25, /*recover_after=*/10);
  const auto r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
}

TEST(FaultTolerance, LongerRecoveryTimeDelaysConvergenceMore) {
  // Paper Table 6: extra time grows with the recovery delay t_r.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  index_t prev_iters = 0;
  for (index_t tr : {0, 10, 20, 30}) {
    BlockAsyncOptions o = base_options();
    if (tr > 0) {
      o.scenario = resilience::FaultScenario{}.fail_components(
          /*at=*/10, /*fraction=*/0.25, /*recover_after=*/tr);
    }
    const auto r = block_async_solve(a, b, o);
    ASSERT_TRUE(r.solve.ok()) << "tr=" << tr;
    if (prev_iters > 0) {
      EXPECT_GE(r.solve.iterations, prev_iters) << "tr=" << tr;
    }
    prev_iters = r.solve.iterations;
  }
}

TEST(FaultTolerance, FailedFractionRespected) {
  // During the failure window exactly ~fraction of components freeze;
  // verify by comparing against a run without failure after fail_at.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.solve.max_iters = 15;
  o.solve.tol = 0.0;
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/5, /*fraction=*/0.5, /*recover_after=*/std::nullopt, /*seed=*/99);
  const auto faulty = block_async_solve(a, b, o);
  BlockAsyncOptions o2 = base_options();
  o2.solve.max_iters = 15;
  o2.solve.tol = 0.0;
  const auto healthy = block_async_solve(a, b, o2);
  // The faulty run must have a strictly worse residual.
  EXPECT_GT(faulty.solve.final_residual, healthy.solve.final_residual);
}

TEST(FaultTolerance, RecoveredRunMatchesNoFailureSolution) {
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/8, /*fraction=*/0.25, /*recover_after=*/15);
  const auto rec = block_async_solve(a, b, o);
  const auto clean = block_async_solve(a, b, base_options());
  ASSERT_TRUE(rec.solve.ok());
  ASSERT_TRUE(clean.solve.ok());
  for (std::size_t i = 0; i < clean.solve.x.size(); ++i) {
    EXPECT_NEAR(rec.solve.x[i], clean.solve.x[i], 1e-9);
  }
}

TEST(FaultTolerance, FullFractionFreezesTheWholeIterate) {
  // fraction = 1.0: every component freezes at fail_at, so the residual
  // is exactly constant from that point on.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base_options();
  o.solve.max_iters = 60;
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/10, /*fraction=*/1.0, /*recover_after=*/std::nullopt);
  const auto r = block_async_solve(a, b, o);
  EXPECT_FALSE(r.solve.ok());
  ASSERT_GT(r.solve.residual_history.size(), 11u);
  EXPECT_DOUBLE_EQ(r.solve.final_residual, r.solve.residual_history[10]);
}

TEST(FaultTolerance, FailureBeyondIterationLimitIsInert) {
  // fail_at past max_iters: the event never fires, so the run is
  // identical to the clean one.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto clean = block_async_solve(a, b, base_options());
  BlockAsyncOptions o = base_options();
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/o.solve.max_iters + 100, /*fraction=*/0.5);
  const auto r = block_async_solve(a, b, o);
  EXPECT_EQ(r.solve.iterations, clean.solve.iterations);
  ASSERT_EQ(r.solve.residual_history.size(),
            clean.solve.residual_history.size());
  for (std::size_t i = 0; i < clean.solve.residual_history.size(); ++i) {
    EXPECT_EQ(r.solve.residual_history[i], clean.solve.residual_history[i]);
  }
}

TEST(FaultTolerance, ZeroRecoveryDelayIsInert) {
  // recover_after = 0: components are reassigned in the same boundary
  // that failed them, so no write ever observes the mask.
  const Csr a = test_matrix();
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto clean = block_async_solve(a, b, base_options());
  BlockAsyncOptions o = base_options();
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/10, /*fraction=*/0.5, /*recover_after=*/0);
  const auto r = block_async_solve(a, b, o);
  EXPECT_EQ(r.solve.iterations, clean.solve.iterations);
  ASSERT_EQ(r.solve.residual_history.size(),
            clean.solve.residual_history.size());
  for (std::size_t i = 0; i < clean.solve.residual_history.size(); ++i) {
    EXPECT_EQ(r.solve.residual_history[i], clean.solve.residual_history[i]);
  }
}

}  // namespace
}  // namespace bars
