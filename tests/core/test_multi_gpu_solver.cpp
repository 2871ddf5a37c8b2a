#include "core/multi_gpu_solver.hpp"

#include <gtest/gtest.h>

#include "matrices/generators.hpp"
#include "telemetry/observer.hpp"

namespace bars {
namespace {

TEST(MultiGpuSolver, ConvergesOnTrefethen) {
  const Csr a = trefethen(500);
  const Vector b(500, 1.0);
  MultiGpuOptions o;
  o.num_devices = 2;
  o.block_size = 64;
  o.matrix_name = "Trefethen_2000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-11;
  const MultiGpuResult r = multi_gpu_block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_GT(r.time_to_convergence, 0.0);
}

TEST(MultiGpuSolver, AmcScalesFromOneToTwoDevices) {
  // Use the Trefethen_20000 per-iteration cost (the Fig. 11 setting):
  // with ~17 ms sweeps the fixed AMC staging cost is small and the
  // second device nearly halves the time.
  const Csr a = trefethen(1000);
  const Vector b(1000, 1.0);
  MultiGpuOptions o;
  o.block_size = 16;  // 63 blocks >> 14 slots: no wave quantization
  o.matrix_name = "Trefethen_20000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-10;
  o.scheme = gpusim::TransferScheme::kAMC;
  o.num_devices = 1;
  const auto r1 = multi_gpu_block_async_solve(a, b, o);
  o.num_devices = 2;
  const auto r2 = multi_gpu_block_async_solve(a, b, o);
  ASSERT_TRUE(r1.solve.ok());
  ASSERT_TRUE(r2.solve.ok());
  EXPECT_LT(r2.time_to_convergence, r1.time_to_convergence);
  // "Almost cut in half": expect at least 25% improvement.
  EXPECT_LT(r2.time_to_convergence, 0.75 * r1.time_to_convergence);
}

TEST(MultiGpuSolver, DcImprovesLessThanAmcAtTwoDevices) {
  const Csr a = trefethen(1000);
  const Vector b(1000, 1.0);
  MultiGpuOptions o;
  o.block_size = 16;
  o.matrix_name = "Trefethen_20000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-10;
  o.num_devices = 2;
  o.scheme = gpusim::TransferScheme::kAMC;
  const auto amc = multi_gpu_block_async_solve(a, b, o);
  o.scheme = gpusim::TransferScheme::kDC;
  const auto dc = multi_gpu_block_async_solve(a, b, o);
  ASSERT_TRUE(amc.solve.ok());
  ASSERT_TRUE(dc.solve.ok());
  EXPECT_LT(amc.time_to_convergence, dc.time_to_convergence);
}

TEST(MultiGpuSolver, AllSchemesReachSameSolution) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  MultiGpuOptions o;
  o.block_size = 36;
  o.num_devices = 3;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-12;
  Vector ref;
  for (auto scheme :
       {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
        gpusim::TransferScheme::kDK}) {
    o.scheme = scheme;
    const auto r = multi_gpu_block_async_solve(a, b, o);
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
  MultiGpuOptions o;
  o.block_size = 16;
  o.num_devices = 2;
  o.solve.tol = 1e-10;
  o.solve.telemetry.observer = &rec;
  o.solve.telemetry.block_commits = true;
  const auto r = multi_gpu_block_async_solve(a, b, o);
  ASSERT_TRUE(r.solve.ok());
  EXPECT_GT(rec.commits, 0);
  EXPECT_EQ(rec.finish.block_commits, rec.commits);
  EXPECT_GE(rec.finish.max_staleness, 1);
}

TEST(MultiGpuSolver, RejectsDimensionMismatch) {
  const Csr a = poisson1d(4);
  const Vector b(5, 1.0);
  EXPECT_THROW((void)multi_gpu_block_async_solve(a, b),
               std::invalid_argument);
}

}  // namespace
}  // namespace bars
