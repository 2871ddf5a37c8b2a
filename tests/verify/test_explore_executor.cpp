/// The PR 2 contract, model-checked: the executor's parallel commit
/// path must be bit-identical to the serial loop on EVERY explored
/// schedule of the worker pool (not just the interleavings a loaded CI
/// machine happens to produce), with the commit ledger checking the
/// async-iteration bookkeeping invariants and the race oracle checking
/// the disjoint-rows write contract on each one. Mutation tests then
/// prove the oracles are alive: a dropped commit and an overlapping
/// write must both be caught.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "core/thread_async.hpp"
#include "gpusim/async_executor.hpp"
#include "gpusim/worker_pool.hpp"
#include "matrices/generators.hpp"
#include "sparse/vector_ops.hpp"
#include "telemetry/observer.hpp"
#include "verify/explorer.hpp"
#include "verify/invariants.hpp"

namespace bars::verify {
namespace {

struct Sys {
  Csr a;
  Vector b;
  RowPartition part;
  BlockJacobiKernel kernel;
  Sys(index_t n, index_t block, index_t k)
      : a(poisson1d(n)),
        b(static_cast<std::size_t>(n), 1.0),
        part(RowPartition::uniform(n, block)),
        kernel(a, b, part, k) {}
  [[nodiscard]] value_t res(const Vector& x) const {
    return relative_residual(a, b, x);
  }
};

gpusim::ExecutorResult run_exec(const Sys& s, gpusim::ExecutorOptions o,
                                Vector& x) {
  gpusim::AsyncExecutor ex(s.kernel, o);
  x.assign(s.b.size(), 0.0);
  return ex.run(x, [&](const Vector& v) { return s.res(v); });
}

gpusim::ExecutorOptions small_opts() {
  gpusim::ExecutorOptions o;
  o.stopping.max_iters = 2;
  o.stopping.tol = 1e-30;  // never converges: fixed-length run
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.concurrent_slots = 4;  // full-width batches over all 4 blocks
  o.record_trace = true;
  return o;
}

/// The acceptance scenario: a 3-thread (caller + 2 pool workers),
/// 4-block async solve, exhaustively explored within a preemption
/// bound of 2. Every schedule must reproduce the serial solve bit for
/// bit, keep the commit ledger clean (no lost commit, per-block
/// generations gapless, virtual time monotone, staleness within the
/// Chazan-Miranker skew bound), and satisfy the disjoint-rows write
/// contract (rows and residual slots) under the race oracle.
TEST(VerifyExecutor, ExhaustiveBitIdentityAndCommitLedger) {
  Sys s(8, 2, 1);  // q = 4 blocks
  gpusim::ExecutorOptions o = small_opts();
  // Residual proxy on: the pool workers also write the blocks' staged
  // residual slots, which the race oracle watches with the rows.
  o.rhs_norm = norm2(s.b);

  Vector xs;
  o.num_workers = 0;
  const gpusim::ExecutorResult serial = run_exec(s, o, xs);
  index_t serial_commits = 0;
  for (const index_t e : serial.block_executions) serial_commits += e;

  o.num_workers = 3;
  CommitLedger ledger(/*num_blocks=*/4,
                      /*staleness_bound=*/o.max_generation_skew);
  o.telemetry.observer = &ledger;

  ExploreOptions opts;
  opts.max_schedules = 150000;  // safety net; expected to exhaust below
  opts.controller.preemption_bound = 2;
  const ExploreReport rep = explore(opts, [&](ScheduleController& c) {
    ledger.reset();
    Vector xp;
    const gpusim::ExecutorResult parallel = run_exec(s, o, xp);

    if (xp != xs) {
      c.report_violation("invariant", "parallel x differs from serial");
    }
    if (parallel.residual_history != serial.residual_history ||
        parallel.time_history != serial.time_history ||
        parallel.block_executions != serial.block_executions ||
        parallel.global_iterations != serial.global_iterations ||
        parallel.max_staleness != serial.max_staleness ||
        parallel.status != serial.status) {
      c.report_violation("invariant",
                         "parallel bookkeeping differs from serial");
    }
    if (ledger.total_commits() != serial_commits) {
      c.report_violation("invariant", "commit count differs from serial");
    }
    ledger.report_to(c);  // generation gaps, vt monotonicity, staleness
  });
  EXPECT_TRUE(rep.exhausted)
      << "schedule tree larger than expected: " << rep.summary();
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.schedules, 50u)
      << "suspiciously few schedules - is the seam active?";
}

/// Liveness of the ledger: drop one commit event and the generation
/// sequence check must fire.
class DropFirstCommit final : public telemetry::SolveObserver {
 public:
  explicit DropFirstCommit(telemetry::SolveObserver* sink) : sink_(sink) {}
  void on_block_commit(const telemetry::BlockCommitEvent& ev) override {
    if (!dropped_) {
      dropped_ = true;  // the mutation: one commit vanishes
      return;
    }
    sink_->on_block_commit(ev);
  }
  void reset() { dropped_ = false; }

 private:
  telemetry::SolveObserver* sink_;
  bool dropped_ = false;
};

TEST(VerifyExecutor, MutationDroppedCommitIsCaught) {
  Sys s(8, 2, 1);
  gpusim::ExecutorOptions o = small_opts();
  o.num_workers = 3;
  CommitLedger ledger(4, 0);
  DropFirstCommit mutator(&ledger);
  o.telemetry.observer = &mutator;

  ExploreOptions opts;
  opts.max_schedules = 1;  // one schedule suffices: the check is per-run
  const ExploreReport rep = explore(opts, [&](ScheduleController& c) {
    ledger.reset();
    mutator.reset();
    Vector xp;
    (void)run_exec(s, o, xp);
    ledger.report_to(c);
  });
  ASSERT_FALSE(rep.ok()) << "dropped commit went unnoticed";
  ASSERT_FALSE(rep.failures.empty());
  EXPECT_EQ(rep.failures.front().violations.front().kind, "invariant");
}

/// Liveness of the race oracle through the pool: two tasks whose
/// annotated write ranges overlap (a broken disjoint-rows contract)
/// must be flagged on every schedule that lands them on different
/// threads.
TEST(VerifyExecutor, MutationOverlappingWriteIsCaught) {
  ExploreOptions opts;
  opts.max_schedules = 50000;
  opts.controller.preemption_bound = 2;
  const ExploreReport rep = explore(opts, [&](ScheduleController&) {
    gpusim::WorkerPool pool(2);
    value_t x[3] = {0.0, 0.0, 0.0};
    pool.run(2, [&](index_t task, index_t) {
      // Task 0 claims rows [0, 2), task 1 claims rows [1, 3): row 1
      // overlaps — exactly the bug the executor's disjoint-row batches
      // must never have.
      const std::size_t lo = static_cast<std::size_t>(task);
      BARS_VERIFY_WRITE(&x[lo], 2 * sizeof(value_t), "mutation.overlap");
      x[lo] += 1.0;
      x[lo + 1] += 1.0;
    });
  });
  EXPECT_TRUE(rep.exhausted) << rep.summary();
  EXPECT_GT(rep.total_violations, 0u)
      << "overlapping writes never flagged: " << rep.summary();
  ASSERT_FALSE(rep.failures.empty());
  EXPECT_EQ(rep.failures.front().violations.front().kind, "race");
}

/// thread_async's truly chaotic path cannot be exhausted (its length is
/// schedule-dependent), so it rides seeded random walks with a small
/// step budget: every walk must terminate, stay violation-free, and
/// satisfy the solver's own accounting.
TEST(VerifyExecutor, ThreadAsyncRandomWalks) {
  const Csr a = trefethen(12);
  const Vector b(12, 1.0);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandomWalk;
  opts.walks = 40;
  opts.seed = 2026;
  opts.controller.max_steps = 400;  // truncate quickly: walks stay cheap
  const ExploreReport rep = explore(opts, [&](ScheduleController& c) {
    ThreadAsyncOptions o;
    o.num_threads = 2;
    o.block_size = 4;  // q = 3 blocks
    o.local_iters = 1;
    o.solve.max_iters = 3;
    o.solve.tol = 1e-12;
    const ThreadAsyncResult r = thread_async_solve(a, b, o);
    index_t total = 0;
    for (const index_t e : r.block_executions) total += e;
    if (total != r.total_block_executions) {
      c.report_violation("invariant", "block execution accounting mismatch");
    }
    if (r.solve.status == SolverStatus::kConverged &&
        r.solve.final_residual > o.solve.tol) {
      c.report_violation("invariant", "converged above tolerance");
    }
  });
  EXPECT_EQ(rep.schedules, 40u);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

}  // namespace
}  // namespace bars::verify
