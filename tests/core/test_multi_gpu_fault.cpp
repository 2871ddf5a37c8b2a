/// Multi-GPU fault tolerance (extension of the paper's Section 4.5 to
/// the Section 3.4 setting): component failures during a multi-device
/// asynchronous solve.

#include <gtest/gtest.h>

#include "core/block_async.hpp"
#include "matrices/generators.hpp"

namespace bars {
namespace {

BlockAsyncOptions base(index_t devices, gpusim::TransferScheme scheme) {
  BlockAsyncOptions o;
  o.num_devices = devices;
  o.scheme = scheme;
  o.block_size = 32;
  o.local_iters = 3;
  o.solve.max_iters = 600;
  o.solve.tol = 1e-11;
  o.seed = 5;
  return o;
}

TEST(MultiGpuFault, NoRecoveryStagnatesOnTwoDevices) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base(2, gpusim::TransferScheme::kAMC);
  o.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/5, /*fraction=*/0.25, /*recover_after=*/std::nullopt);
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_FALSE(r.solve.ok());
  EXPECT_GT(r.solve.final_residual, 1e-8);
}

TEST(MultiGpuFault, RecoveryRestoresConvergenceAcrossSchemes) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  for (auto scheme :
       {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
        gpusim::TransferScheme::kDK}) {
    BlockAsyncOptions o = base(3, scheme);
    o.scenario = resilience::FaultScenario{}.fail_components(
        /*at=*/5, /*fraction=*/0.25, /*recover_after=*/10);
    const BlockAsyncResult r = block_async_solve(a, b, o);
    EXPECT_TRUE(r.solve.ok()) << to_string(scheme);
  }
}

TEST(MultiGpuFault, RecoveredSolutionMatchesCleanRun) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions clean = base(2, gpusim::TransferScheme::kAMC);
  const BlockAsyncResult rc = block_async_solve(a, b, clean);
  BlockAsyncOptions faulty = clean;
  faulty.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/4, /*fraction=*/0.3, /*recover_after=*/8);
  const BlockAsyncResult rf = block_async_solve(a, b, faulty);
  ASSERT_TRUE(rc.solve.ok());
  ASSERT_TRUE(rf.solve.ok());
  for (std::size_t i = 0; i < rc.solve.x.size(); ++i) {
    EXPECT_NEAR(rf.solve.x[i], rc.solve.x[i], 1e-9);
  }
}

TEST(MultiGpuFault, FaultDelaysConvergence) {
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions clean = base(2, gpusim::TransferScheme::kAMC);
  const BlockAsyncResult rc = block_async_solve(a, b, clean);
  BlockAsyncOptions faulty = clean;
  faulty.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/4, /*fraction=*/0.3, /*recover_after=*/12);
  const BlockAsyncResult rf = block_async_solve(a, b, faulty);
  ASSERT_TRUE(rc.solve.ok());
  ASSERT_TRUE(rf.solve.ok());
  EXPECT_GT(rf.solve.iterations, rc.solve.iterations);
}

TEST(MultiGpuFault, DeviceDropoutConvergesAfterRejoin) {
  // A whole simulated GPU drops out at iteration 5 and rejoins 10
  // iterations later with a refreshed view of the canonical iterate;
  // the solve converges regardless.
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base(2, gpusim::TransferScheme::kAMC);
  resilience::FaultScenario s;
  s.drop_device(/*at=*/5, /*device=*/1, /*rejoin_after=*/10);
  o.scenario = s;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
}

TEST(MultiGpuFault, PermanentDeviceDropoutStagnates) {
  // Without a rejoin the rows owned by the dropped device never update
  // again, so the residual stalls above tolerance.
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base(2, gpusim::TransferScheme::kAMC);
  o.solve.max_iters = 200;
  resilience::FaultScenario s;
  s.drop_device(5, 1, /*rejoin_after=*/std::nullopt);
  o.scenario = s;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_FALSE(r.solve.ok());
  EXPECT_GT(r.solve.final_residual, 1e-8);
}

TEST(MultiGpuFault, LinkFailureRetriesThenConverges) {
  // A transfer-link outage forces retry/backoff but the solve still
  // converges once the link heals; the retries are accounted for.
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base(2, gpusim::TransferScheme::kAMC);
  resilience::FaultScenario s;
  s.fail_link(/*at=*/5, /*device=*/1, /*duration=*/10);
  o.scenario = s;
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_GT(r.resilience.transfer_retries, 0);
}

TEST(MultiGpuFault, DropoutWithRecoveryPolicyReportsActivity) {
  // Scenario + active policy together: converges and the report carries
  // the checkpoint trail.
  const Csr a = fv_like(12, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o = base(2, gpusim::TransferScheme::kDC);
  resilience::FaultScenario s;
  s.drop_device(5, 1, 10);
  o.scenario = s;
  o.resilience = resilience::Policy{};
  const BlockAsyncResult r = block_async_solve(a, b, o);
  EXPECT_TRUE(r.solve.ok());
  EXPECT_GT(r.resilience.checkpoints_saved, 0);
}

}  // namespace
}  // namespace bars
