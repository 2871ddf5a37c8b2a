#include "gpusim/multi_device.hpp"

#include <gtest/gtest.h>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "matrices/generators.hpp"
#include "sparse/partition.hpp"

namespace bars::gpusim {
namespace {

struct Fixture {
  Csr a;
  Vector b;
  BlockJacobiKernel kernel;
  /// fv-type reaction-diffusion system on an m x m grid: well
  /// conditioned enough that every scheme converges within the budgets.
  explicit Fixture(index_t m = 12, index_t block = 16, index_t k = 2)
      : a(fv_like(m, 0.6)),
        b(static_cast<std::size_t>(a.rows()), 1.0),
        kernel(a, b, RowPartition::uniform(a.rows(), block), k) {}
  [[nodiscard]] value_t residual(const Vector& x) const {
    return relative_residual(a, b, x);
  }
};

MultiDeviceResult run_with(Fixture& s, TransferScheme scheme, index_t devices,
                           index_t max_iters = 5000, value_t tol = 1e-11) {
  MultiDeviceOptions o;
  o.num_devices = devices;
  o.scheme = scheme;
  o.stopping.max_global_iters = max_iters;
  o.stopping.tol = tol;
  o.seed = 77;
  MultiDeviceExecutor ex(s.kernel, o);
  Vector x(s.b.size(), 0.0);
  return ex.run(x, [&](const Vector& v) { return s.residual(v); });
}

TEST(MultiDevice, AllSchemesConvergeSingleDevice) {
  Fixture s;
  for (auto scheme :
       {TransferScheme::kAMC, TransferScheme::kDC, TransferScheme::kDK}) {
    const auto r = run_with(s, scheme, 1);
    EXPECT_TRUE(r.ok()) << to_string(scheme);
  }
}

TEST(MultiDevice, AllSchemesConvergeOnFourDevices) {
  Fixture s;
  for (auto scheme :
       {TransferScheme::kAMC, TransferScheme::kDC, TransferScheme::kDK}) {
    const auto r = run_with(s, scheme, 4);
    EXPECT_TRUE(r.ok()) << to_string(scheme);
    EXPECT_LE(r.residual_history.back(), 1e-11) << to_string(scheme);
  }
}

TEST(MultiDevice, AmcTwoDevicesFasterThanOne) {
  Fixture s(16, 16, 2);
  const auto r1 = run_with(s, TransferScheme::kAMC, 1);
  const auto r2 = run_with(s, TransferScheme::kAMC, 2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(r2.virtual_time, r1.virtual_time);
}

TEST(MultiDevice, TransfersAccountedAmc) {
  Fixture s;
  const auto r = run_with(s, TransferScheme::kAMC, 2, 50, 0.0);
  // Every sweep: one upload + one download per peer, both host<->device.
  EXPECT_GT(r.num_transfers, 0);
  EXPECT_GT(r.bytes_host_device, 0.0);
  EXPECT_DOUBLE_EQ(r.bytes_device_device, 0.0);
}

TEST(MultiDevice, TransfersAccountedDc) {
  Fixture s;
  const auto r = run_with(s, TransferScheme::kDC, 2, 50, 0.0);
  EXPECT_GT(r.bytes_device_device, 0.0);
  EXPECT_DOUBLE_EQ(r.bytes_host_device, 0.0);
}

TEST(MultiDevice, DkHasNoBulkTransfersFromMaster) {
  Fixture s;
  const auto r1 = run_with(s, TransferScheme::kDK, 1, 50, 0.0);
  EXPECT_DOUBLE_EQ(r1.bytes_device_device, 0.0);
  const auto r2 = run_with(s, TransferScheme::kDK, 2, 50, 0.0);
  EXPECT_GT(r2.bytes_device_device, 0.0);  // remote sweep traffic accounting
}

TEST(MultiDevice, DeterministicGivenSeed) {
  Fixture s;
  const auto r1 = run_with(s, TransferScheme::kAMC, 3, 40, 0.0);
  const auto r2 = run_with(s, TransferScheme::kAMC, 3, 40, 0.0);
  ASSERT_EQ(r1.residual_history.size(), r2.residual_history.size());
  for (std::size_t i = 0; i < r1.residual_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.residual_history[i], r2.residual_history[i]);
  }
}

TEST(MultiDevice, ResultMatchesSolutionAcrossSchemes) {
  // All schemes must converge to the same solution of A x = b.
  Fixture s;
  const Vector ref = [&] {
    auto r = run_with(s, TransferScheme::kAMC, 1);
    Vector x(s.b.size(), 0.0);
    MultiDeviceOptions o;
    o.num_devices = 1;
    o.stopping.tol = 1e-12;
    o.stopping.max_global_iters = 20000;
    MultiDeviceExecutor ex(s.kernel, o);
    (void)ex.run(x, [&](const Vector& v) { return s.residual(v); });
    return x;
  }();
  for (auto scheme : {TransferScheme::kDC, TransferScheme::kDK}) {
    MultiDeviceOptions o;
    o.num_devices = 3;
    o.scheme = scheme;
    o.stopping.tol = 1e-12;
    o.stopping.max_global_iters = 20000;
    MultiDeviceExecutor ex(s.kernel, o);
    Vector x(s.b.size(), 0.0);
    (void)ex.run(x, [&](const Vector& v) { return s.residual(v); });
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], ref[i], 1e-9) << to_string(scheme) << " i=" << i;
    }
  }
}

TEST(MultiDevice, RejectsBadOptions) {
  Fixture s;
  MultiDeviceOptions o;
  o.num_devices = 0;
  EXPECT_THROW(MultiDeviceExecutor(s.kernel, o), std::invalid_argument);
  o.num_devices = 9;
  EXPECT_THROW(MultiDeviceExecutor(s.kernel, o), std::invalid_argument);
  o.num_devices = 2;
  o.global_iteration_time = -1.0;
  EXPECT_THROW(MultiDeviceExecutor(s.kernel, o), std::invalid_argument);
}

TEST(MultiDevice, MoreDevicesThanBlocksClamps) {
  Fixture s(6, 18, 1);  // n = 36: only 2 blocks
  const auto r = run_with(s, TransferScheme::kAMC, 4);
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace bars::gpusim
