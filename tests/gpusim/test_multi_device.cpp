/// The multi-device layout of AsyncExecutor (paper Sections 3.4, 4.6):
/// the AMC, DC and DK transfer schemes over 1..4 simulated GPUs.

#include "gpusim/async_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "matrices/generators.hpp"
#include "sparse/partition.hpp"
#include "telemetry/observer.hpp"

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

/// Options of a multi-device run, with the multi-GPU front-end's
/// bounded shift.
ExecutorOptions multi(index_t devices, TransferScheme scheme) {
  ExecutorOptions o;
  o.num_devices = devices;
  o.scheme = scheme;
  o.max_generation_skew = 4;
  return o;
}

ExecutorResult run_with(Fixture& s, ExecutorOptions o) {
  AsyncExecutor ex(s.kernel, o);
  Vector x(s.b.size(), 0.0);
  return ex.run(x, [&](const Vector& v) { return s.residual(v); });
}

ExecutorResult run_with(Fixture& s, TransferScheme scheme, index_t devices,
                        index_t max_iters = 5000, value_t tol = 1e-11) {
  ExecutorOptions o = multi(devices, scheme);
  o.stopping.max_iters = max_iters;
  o.stopping.tol = tol;
  o.seed = 77;
  return run_with(s, o);
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
    ExecutorOptions o = multi(1, TransferScheme::kAMC);
    o.stopping.tol = 1e-12;
    o.stopping.max_iters = 20000;
    AsyncExecutor ex(s.kernel, o);
    (void)ex.run(x, [&](const Vector& v) { return s.residual(v); });
    return x;
  }();
  for (auto scheme : {TransferScheme::kDC, TransferScheme::kDK}) {
    ExecutorOptions o = multi(3, scheme);
    o.stopping.tol = 1e-12;
    o.stopping.max_iters = 20000;
    AsyncExecutor ex(s.kernel, o);
    Vector x(s.b.size(), 0.0);
    (void)ex.run(x, [&](const Vector& v) { return s.residual(v); });
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], ref[i], 1e-9) << to_string(scheme) << " i=" << i;
    }
  }
}

TEST(MultiDevice, RejectsBadOptions) {
  Fixture s;
  ExecutorOptions o = multi(0, TransferScheme::kAMC);
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
  o.num_devices = 9;
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
  o.num_devices = 2;
  o.global_iteration_time = -1.0;
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
  // Several devices without a transfer scheme have no defined visibility.
  o = multi(2, TransferScheme::kNone);
  EXPECT_THROW(AsyncExecutor(s.kernel, o), std::invalid_argument);
}

TEST(MultiDevice, MoreDevicesThanBlocksClamps) {
  Fixture s(6, 18, 1);  // n = 36: only 2 blocks
  const auto r = run_with(s, TransferScheme::kAMC, 4);
  EXPECT_TRUE(r.ok());
}

TEST(MultiDevice, AmcTraceCountsEveryExecution) {
  Fixture s;
  for (index_t devices : {2, 4}) {
    ExecutorOptions o = multi(devices, TransferScheme::kAMC);
    o.stopping.max_iters = 30;
    o.stopping.tol = 0.0;
    o.record_trace = true;
    const ExecutorResult r = run_with(s, o);
    ASSERT_EQ(static_cast<index_t>(r.block_executions.size()),
              s.kernel.num_blocks());
    index_t executions = 0;
    for (index_t c : r.block_executions) {
      EXPECT_GT(c, 0) << devices << " devices";
      executions += c;
    }
    EXPECT_EQ(executions, r.global_iterations * s.kernel.num_blocks());
    EXPECT_EQ(static_cast<index_t>(r.trace.events().size()), executions)
        << devices << " devices";
    EXPECT_GE(r.max_staleness, 1) << devices << " devices";
  }
}

/// Records the device and staleness of every commit event.
class CommitRecorder : public telemetry::SolveObserver {
 public:
  void on_block_commit(const telemetry::BlockCommitEvent& ev) override {
    commits.push_back(ev);
  }
  std::vector<telemetry::BlockCommitEvent> commits;
};

TEST(MultiDevice, CommitStreamCarriesDeviceAndStaleness) {
  Fixture s;
  CommitRecorder rec;
  ExecutorOptions o = multi(2, TransferScheme::kAMC);
  o.stopping.max_iters = 20;
  o.stopping.tol = 0.0;
  o.telemetry.observer = &rec;
  o.telemetry.block_commits = true;
  const ExecutorResult r = run_with(s, o);
  ASSERT_FALSE(rec.commits.empty());
  const index_t half = s.kernel.num_blocks() / 2;
  index_t max_staleness = 0;
  bool saw_device1 = false;
  for (const auto& c : rec.commits) {
    EXPECT_EQ(c.device, c.block < half ? 0 : 1) << "block " << c.block;
    saw_device1 = saw_device1 || c.device == 1;
    max_staleness = std::max(max_staleness, c.staleness);
  }
  EXPECT_TRUE(saw_device1);
  EXPECT_GE(max_staleness, 1);
  EXPECT_LE(max_staleness, r.max_staleness);
}

}  // namespace
}  // namespace bars::gpusim
