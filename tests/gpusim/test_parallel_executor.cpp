/// Parallel commit path: the hot-path optimization must be invisible
/// in the results — the parallel executor replays bookkeeping in event
/// order and is bit-identical to the serial loop.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "backend/block_jacobi_kernel.hpp"
#include "core/block_async.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "gpusim/worker_pool.hpp"
#include "matrices/generators.hpp"

namespace bars::gpusim {
namespace {

// --------------------------------------------------------- worker pool

TEST(WorkerPool, ExecutesEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.run(257, [&](index_t task, index_t /*worker*/) {
    hits[static_cast<std::size_t>(task)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyRuns) {
  WorkerPool pool(3);
  std::atomic<long long> sum{0};
  long long expect = 0;
  for (int round = 0; round < 200; ++round) {
    const index_t count = 1 + (round % 7);
    pool.run(count, [&](index_t task, index_t) { sum.fetch_add(task + 1); });
    expect += count * (count + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expect);
}

TEST(WorkerPool, HandlesEmptyAndSingleTaskRuns) {
  WorkerPool pool(4);
  std::atomic<int> calls{0};
  pool.run(0, [&](index_t, index_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.run(1, [&](index_t, index_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

// ------------------------------------- parallel vs serial bit-identity

struct Sys {
  Csr a;
  Vector b;
  RowPartition part;
  BlockJacobiKernel kernel;
  Sys(index_t n, index_t block, index_t k, bool dominant = false)
      : a(dominant ? trefethen(n) : poisson1d(n)),
        b(static_cast<std::size_t>(n), 1.0),
        part(RowPartition::uniform(n, block)),
        kernel(a, b, part, k) {}
  [[nodiscard]] value_t res(const Vector& x) const {
    return relative_residual(a, b, x);
  }
};

ExecutorResult run_exec(const Sys& s, ExecutorOptions o, Vector& x) {
  AsyncExecutor ex(s.kernel, o);
  x.assign(s.b.size(), 0.0);
  return ex.run(x, [&](const Vector& v) { return s.res(v); });
}

void expect_identical(const ExecutorResult& a, const Vector& xa,
                      const ExecutorResult& b, const Vector& xb) {
  EXPECT_EQ(xa, xb);  // bitwise: operator== on doubles
  EXPECT_EQ(a.residual_history, b.residual_history);
  EXPECT_EQ(a.time_history, b.time_history);
  EXPECT_EQ(a.block_executions, b.block_executions);
  EXPECT_EQ(a.global_iterations, b.global_iterations);
  EXPECT_EQ(a.max_staleness, b.max_staleness);
  EXPECT_EQ(a.status, b.status);
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t i = 0; i < a.trace.events().size(); ++i) {
    const TraceEvent& ea = a.trace.events()[i];
    const TraceEvent& eb = b.trace.events()[i];
    EXPECT_EQ(ea.block, eb.block);
    EXPECT_EQ(ea.generation, eb.generation);
    EXPECT_EQ(ea.start, eb.start);
    EXPECT_EQ(ea.read, eb.read);
    EXPECT_EQ(ea.write, eb.write);
  }
}

TEST(ParallelExecutor, RoundRobinBitIdenticalToSerial) {
  // async-(1) and async-(5), each with every block in flight at once.
  for (const index_t local_iters : {1, 5}) {
    SCOPED_TRACE(local_iters);
    Sys s(640, 8, local_iters);  // q = 80 blocks
    ExecutorOptions o;
    o.stopping.max_iters = 40;
    o.stopping.tol = 1e-30;
    o.policy = SchedulePolicy::kRoundRobin;
    o.concurrent_slots = 80;  // full-width batches
    o.record_trace = true;
    Vector xs, xp;
    o.num_workers = 0;
    const auto serial = run_exec(s, o, xs);
    o.num_workers = 4;
    const auto parallel = run_exec(s, o, xp);
    expect_identical(serial, xs, parallel, xp);
  }
}

TEST(ParallelExecutor, BitIdenticalWithPartialSlotsAndLocalSweeps) {
  Sys s(640, 8, 5);  // async-(5)
  ExecutorOptions o;
  o.stopping.max_iters = 30;
  o.stopping.tol = 1e-30;
  o.policy = SchedulePolicy::kRoundRobin;
  o.concurrent_slots = 13;  // batches smaller than q, uneven waves
  o.record_trace = true;
  Vector xs, xp;
  o.num_workers = 0;
  const auto serial = run_exec(s, o, xs);
  o.num_workers = 3;
  const auto parallel = run_exec(s, o, xp);
  expect_identical(serial, xs, parallel, xp);
}

TEST(ParallelExecutor, BitIdenticalWhenConvergingMidBatch) {
  // Tight tolerance hit partway through a batch: uncommitted members
  // must be rolled back so x matches the serial early exit exactly.
  // Trefethen's matrix is strongly dominant, so convergence lands well
  // inside the iteration budget.
  Sys s(320, 8, 2, /*dominant=*/true);
  ExecutorOptions o;
  o.stopping.max_iters = 400;
  o.stopping.tol = 1e-10;
  o.policy = SchedulePolicy::kRoundRobin;
  o.concurrent_slots = 40;
  Vector xs, xp;
  o.num_workers = 0;
  const auto serial = run_exec(s, o, xs);
  o.num_workers = 4;
  const auto parallel = run_exec(s, o, xp);
  EXPECT_TRUE(serial.ok());
  expect_identical(serial, xs, parallel, xp);
}

TEST(ParallelExecutor, JitteredPolicyAlsoIdentical) {
  // Jittered durations rarely coincide, so batches mostly degenerate to
  // size one — the path must still agree bit-for-bit.
  Sys s(320, 8, 1);
  ExecutorOptions o;
  o.stopping.max_iters = 25;
  o.stopping.tol = 1e-30;
  o.seed = 7;
  o.policy = SchedulePolicy::kJittered;
  o.concurrent_slots = 20;
  Vector xs, xp;
  o.num_workers = 0;
  const auto serial = run_exec(s, o, xs);
  o.num_workers = 4;
  const auto parallel = run_exec(s, o, xp);
  expect_identical(serial, xs, parallel, xp);
}

TEST(ParallelExecutor, SolverLevelRoundTrip) {
  const Csr a = fv_like(24, 0.6);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  BlockAsyncOptions o;
  o.solve.max_iters = 60;
  o.solve.tol = 1e-12;
  o.solve.record_history = true;
  o.block_size = 8;
  o.local_iters = 3;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.concurrent_slots = 64;
  o.num_workers = 0;
  const auto serial = block_async_solve(a, b, o);
  o.num_workers = 4;
  const auto parallel = block_async_solve(a, b, o);
  EXPECT_EQ(serial.solve.x, parallel.solve.x);
  EXPECT_EQ(serial.solve.residual_history, parallel.solve.residual_history);
  EXPECT_EQ(serial.solve.iterations, parallel.solve.iterations);
}

}  // namespace
}  // namespace bars::gpusim
