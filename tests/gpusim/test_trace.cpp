#include "gpusim/trace.hpp"

#include <gtest/gtest.h>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "matrices/generators.hpp"

namespace bars::gpusim {
namespace {

ExecutorResult traced_run(index_t n, index_t block, index_t iters,
                          ExecutorOptions o = {}) {
  static Csr a;
  static Vector b;
  a = fv_like(n, 0.6);
  b.assign(static_cast<std::size_t>(a.rows()), 1.0);
  static std::unique_ptr<BlockJacobiKernel> kernel;
  kernel = std::make_unique<BlockJacobiKernel>(
      a, b, RowPartition::uniform(a.rows(), block), 1);
  o.record_trace = true;
  o.stopping.max_iters = iters;
  o.stopping.tol = 0.0;
  AsyncExecutor ex(*kernel, o);
  Vector x(b.size(), 0.0);
  return ex.run(x, [&](const Vector& v) { return relative_residual(a, b, v); });
}

TEST(Trace, RecordsOneEventPerExecution) {
  const auto r = traced_run(10, 20, 8);
  index_t total = 0;
  for (index_t c : r.block_executions) total += c;
  EXPECT_EQ(static_cast<index_t>(r.trace.events().size()), total);
}

TEST(Trace, EventsWellOrdered) {
  const auto r = traced_run(10, 20, 8);
  for (const auto& ev : r.trace.events()) {
    EXPECT_LE(ev.start, ev.read);
    EXPECT_LE(ev.read, ev.write);
    EXPECT_GE(ev.start, 0.0);
  }
}

TEST(Trace, MakespanMatchesVirtualTime) {
  const auto r = traced_run(10, 20, 8);
  EXPECT_NEAR(r.trace.makespan(), r.virtual_time, 1e-12);
}

TEST(Trace, ConcurrencyBoundedBySlots) {
  ExecutorOptions o;
  o.concurrent_slots = 4;
  const auto r = traced_run(12, 12, 10, o);  // 12 blocks, 4 slots
  const value_t conc = r.trace.average_concurrency();
  EXPECT_GT(conc, 1.0);
  EXPECT_LE(conc, 4.0 + 1e-9);
  EXPECT_LE(r.trace.occupancy(4), 1.0 + 1e-9);
  EXPECT_GT(r.trace.occupancy(4), 0.5);
}

TEST(Trace, StalenessHistogramBoundedByGate) {
  ExecutorOptions o;
  o.max_generation_skew = 2;
  const auto r = traced_run(12, 12, 20, o);
  const auto hist = r.trace.staleness_histogram();
  // Gap bounded by skew gate + in-flight slack.
  EXPECT_LE(static_cast<index_t>(hist.size()), o.max_generation_skew + 2);
  index_t total = 0;
  for (index_t h : hist) total += h;
  EXPECT_GT(total, 0);
}

TEST(Trace, DisabledByDefault) {
  static Csr a = poisson1d(16);
  static Vector b(16, 1.0);
  static BlockJacobiKernel kernel(a, b, RowPartition::uniform(16, 4), 1);
  ExecutorOptions o;
  o.stopping.max_iters = 5;
  o.stopping.tol = 0.0;
  AsyncExecutor ex(kernel, o);
  Vector x(16, 0.0);
  const auto r =
      ex.run(x, [&](const Vector& v) { return relative_residual(a, b, v); });
  EXPECT_TRUE(r.trace.empty());
}

TEST(Trace, EmptyTraceAnalysesAreZero) {
  ExecutionTrace t;
  EXPECT_DOUBLE_EQ(t.makespan(), 0.0);
  EXPECT_DOUBLE_EQ(t.average_concurrency(), 0.0);
  EXPECT_DOUBLE_EQ(t.occupancy(14), 0.0);
  EXPECT_TRUE(t.staleness_histogram().empty());
}

}  // namespace
}  // namespace bars::gpusim
