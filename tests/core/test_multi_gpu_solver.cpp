#include "core/block_async.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "matrices/generators.hpp"
#include "telemetry/observer.hpp"

namespace bars {
namespace {

/// The multi-GPU setting of Fig. 11: AMC transfers, async-(5).
BlockAsyncOptions multi_gpu_options() {
  BlockAsyncOptions o;
  o.scheme = gpusim::TransferScheme::kAMC;
  o.local_iters = 5;
  return o;
}

TEST(MultiGpuSolver, ConvergesOnTrefethen) {
  const Csr a = trefethen(500);
  const Vector b(500, 1.0);
  BlockAsyncOptions o = multi_gpu_options();
  o.num_devices = 2;
  o.block_size = 64;
  o.matrix_name = "Trefethen_2000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-11;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_GT(r.virtual_time, 0.0);
}

TEST(MultiGpuSolver, AmcScalesFromOneToTwoDevices) {
  // Use the Trefethen_20000 per-iteration cost (the Fig. 11 setting):
  // with ~17 ms sweeps the fixed AMC staging cost is small and the
  // second device nearly halves the time.
  const Csr a = trefethen(1000);
  const Vector b(1000, 1.0);
  BlockAsyncOptions o = multi_gpu_options();
  o.block_size = 16;  // 63 blocks >> 14 slots: no wave quantization
  o.matrix_name = "Trefethen_20000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-10;
  o.scheme = gpusim::TransferScheme::kAMC;
  o.num_devices = 1;
  const auto r1 = block_async_solve(a, b, o);
  o.num_devices = 2;
  const auto r2 = block_async_solve(a, b, o);
  ASSERT_TRUE(r1.solve.ok());
  ASSERT_TRUE(r2.solve.ok());
  EXPECT_LT(r2.virtual_time, r1.virtual_time);
  // "Almost cut in half": expect at least 25% improvement.
  EXPECT_LT(r2.virtual_time, 0.75 * r1.virtual_time);
}

TEST(MultiGpuSolver, DcImprovesLessThanAmcAtTwoDevices) {
  const Csr a = trefethen(1000);
  const Vector b(1000, 1.0);
  BlockAsyncOptions o = multi_gpu_options();
  o.block_size = 16;
  o.matrix_name = "Trefethen_20000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-10;
  o.num_devices = 2;
  o.scheme = gpusim::TransferScheme::kAMC;
  const auto amc = block_async_solve(a, b, o);
  o.scheme = gpusim::TransferScheme::kDC;
  const auto dc = block_async_solve(a, b, o);
  ASSERT_TRUE(amc.solve.ok());
  ASSERT_TRUE(dc.solve.ok());
  EXPECT_LT(amc.virtual_time, dc.virtual_time);
}

TEST(MultiGpuSolver, AllSchemesReachSameSolution) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = multi_gpu_options();
  o.block_size = 36;
  o.num_devices = 3;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-12;
  Vector ref;
  for (auto scheme :
       {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
        gpusim::TransferScheme::kDK}) {
    o.scheme = scheme;
    const auto r = block_async_solve(a, b, o);
    ASSERT_TRUE(r.solve.ok()) << to_string(scheme);
    if (ref.empty()) {
      ref = r.solve.x;
    } else {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(r.solve.x[i], ref[i], 1e-9);
      }
    }
  }
}

/// Counts commit events and keeps the finish summary.
class FinishRecorder : public telemetry::SolveObserver {
 public:
  void on_block_commit(const telemetry::BlockCommitEvent& /*ev*/) override {
    ++commits;
  }
  void on_finish(const telemetry::SolveFinishEvent& ev) override {
    finish = ev;
  }
  index_t commits = 0;
  telemetry::SolveFinishEvent finish;
};

TEST(MultiGpuSolver, FinishSummaryMatchesCommitStream) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  FinishRecorder rec;
  BlockAsyncOptions o = multi_gpu_options();
  o.block_size = 16;
  o.num_devices = 2;
  o.solve.tol = 1e-10;
  o.solve.telemetry.observer = &rec;
  o.solve.telemetry.block_commits = true;
  const auto r = block_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok());
  EXPECT_GT(rec.commits, 0);
  EXPECT_EQ(rec.finish.block_commits, rec.commits);
  EXPECT_GE(rec.finish.max_staleness, 1);
}

TEST(MultiGpuSolver, RejectsDimensionMismatch) {
  const Csr a = poisson1d(4);
  const Vector b(5, 1.0);
  EXPECT_THROW((void)block_async_solve(a, b, multi_gpu_options()),
               std::invalid_argument);
}

TEST(MultiGpuSolver, HonoursSchedulePolicy) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = multi_gpu_options();
  o.block_size = 16;
  o.num_devices = 2;
  o.solve.tol = 1e-10;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  const auto fixed = block_async_solve(a, b, o);
  o.policy = gpusim::SchedulePolicy::kJittered;
  const auto jittered = block_async_solve(a, b, o);
  ASSERT_TRUE(fixed.solve.ok());
  ASSERT_TRUE(jittered.solve.ok());
  EXPECT_NE(fixed.solve.time_history, jittered.solve.time_history);
  EXPECT_NE(fixed.solve.residual_history, jittered.solve.residual_history);
}

TEST(MultiGpuSolver, HonoursPatternSeed) {
  // Under a recurring pattern a run seed only perturbs each block
  // duration by +-run_noise, so every boundary's virtual time moves by
  // about that fraction (a little more where the perturbation reorders
  // a commit across a sweep-end transfer); without a pattern two seeds
  // draw unrelated schedules and move it by far more.
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = multi_gpu_options();
  o.block_size = 16;
  o.num_devices = 2;
  o.solve.tol = 1e-10;
  const auto max_time_shift = [&](const BlockAsyncOptions& base) {
    BlockAsyncOptions run = base;
    run.seed = 1;
    const auto r1 = block_async_solve(a, b, run);
    run.seed = 2;
    const auto r2 = block_async_solve(a, b, run);
    EXPECT_TRUE(r1.solve.ok());
    EXPECT_TRUE(r2.solve.ok());
    const std::vector<value_t>& t1 = r1.solve.time_history;
    const std::vector<value_t>& t2 = r2.solve.time_history;
    value_t shift = 0.0;
    for (std::size_t k = 1; k < std::min(t1.size(), t2.size()); ++k) {
      shift = std::max(shift, std::abs(t2[k] / t1[k] - 1.0));
    }
    return shift;
  };
  const value_t unpatterned = max_time_shift(o);
  o.pattern_seed = 4242;
  const value_t patterned = max_time_shift(o);
  EXPECT_GT(patterned, 0.0);
  EXPECT_LE(patterned, 2.0 * o.run_noise);
  EXPECT_GT(unpatterned, 5.0 * o.run_noise);
}

}  // namespace
}  // namespace bars
