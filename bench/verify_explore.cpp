/// Schedule-exploration gate for the concurrency verification tier
/// (docs/VERIFY.md). Two halves, both gating:
///
///   1. Exhaustive: every schedule (within a preemption bound of 2) of
///      the fork-join worker pool and of a 3-thread / 4-block async
///      executor solve. The executor must be bit-identical to the
///      serial loop on every schedule, with the commit ledger checking
///      no-lost-commit, per-block generation gaplessness, virtual-time
///      monotonicity and the staleness bound, and the race oracle
///      checking the disjoint-rows write contract.
///   2. Seeded random walks (--walks, split across thread_async and the
///      solve service): reproducible PCT-style priority walks; any
///      violating walk's seed and decision trail go to --seeds-out so
///      CI can archive them and a developer can replay with
///      bars::verify::replay_seed / replay_trail.
///
///   build/bench/verify_explore [--walks=2000] [--seed=1]
///       [--out=BENCH_verify.json] [--seeds-out=verify_failures.txt]
///
/// Exit code 1 when any gate fails (violation found, exhaustive tree
/// not exhausted, walk count not met), 2 on flag typos. Only built
/// when BARS_ENABLE_VERIFY is on.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "backend/block_jacobi_kernel.hpp"
#include "core/thread_async.hpp"
#include "gpusim/async_executor.hpp"
#include "gpusim/worker_pool.hpp"
#include "matrices/generators.hpp"
#include "sparse/vector_ops.hpp"
#include "report/args.hpp"
#include "service/solve_service.hpp"
#include "verify/explorer.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace bars;
using verify::ExploreMode;
using verify::ExploreOptions;
using verify::ExploreReport;
using verify::ScheduleController;

struct Gate {
  std::string name;
  ExploreReport report;
  bool passed = false;
};

/// Append every failing schedule (seed and/or trail) to the artifact
/// stream in a replay-ready line format.
void dump_failures(std::ostream& os, const Gate& g) {
  for (const auto& f : g.report.failures) {
    os << "scenario=" << g.name << " seed=" << f.seed << " trail=";
    for (std::size_t i = 0; i < f.trail.size(); ++i) {
      if (i != 0) os << ',';
      os << f.trail[i];
    }
    for (const auto& v : f.violations) {
      os << " [" << v.kind << "] " << v.detail << ";";
    }
    os << '\n';
  }
}

Gate gate_worker_pool_exhaustive() {
  ExploreOptions opts;
  opts.max_schedules = 200000;
  opts.controller.preemption_bound = 2;
  ExploreReport rep = verify::explore(opts, [&](ScheduleController& c) {
    gpusim::WorkerPool pool(3);
    std::vector<int> hits(4, 0);
    pool.run(4, [&](index_t task, index_t) {
      BARS_VERIFY_WRITE(&hits[static_cast<std::size_t>(task)], sizeof(int),
                        "gate.task_slot");
      ++hits[static_cast<std::size_t>(task)];
    });
    for (int h : hits) {
      if (h != 1) c.report_violation("invariant", "task not run exactly once");
    }
  });
  Gate g{"worker-pool-exhaustive", std::move(rep), false};
  g.passed = g.report.ok() && g.report.exhausted;
  return g;
}

Gate gate_executor_exhaustive() {
  const Csr a = poisson1d(8);
  const Vector b(8, 1.0);
  const RowPartition part = RowPartition::uniform(8, 2);  // q = 4 blocks
  const BlockJacobiKernel kernel(a, b, part, 1);
  const auto residual = [&](const Vector& v) {
    return relative_residual(a, b, v);
  };

  gpusim::ExecutorOptions o;
  o.stopping.max_iters = 2;
  o.stopping.tol = 1e-30;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.concurrent_slots = 4;
  o.record_trace = true;
  o.rhs_norm = norm2(b);  // residual slots under the race oracle too

  o.num_workers = 0;
  Vector xs(b.size(), 0.0);
  gpusim::AsyncExecutor serial_ex(kernel, o);
  const gpusim::ExecutorResult serial = serial_ex.run(xs, residual);

  o.num_workers = 3;
  verify::CommitLedger ledger(4, o.max_generation_skew);
  o.telemetry.observer = &ledger;

  ExploreOptions opts;
  opts.max_schedules = 150000;
  opts.controller.preemption_bound = 2;
  ExploreReport rep = verify::explore(opts, [&](ScheduleController& c) {
    ledger.reset();
    Vector xp(b.size(), 0.0);
    gpusim::AsyncExecutor ex(kernel, o);
    const gpusim::ExecutorResult parallel = ex.run(xp, residual);
    if (xp != xs) {
      c.report_violation("invariant", "parallel x differs from serial");
    }
    if (parallel.residual_history != serial.residual_history ||
        parallel.block_executions != serial.block_executions ||
        parallel.global_iterations != serial.global_iterations) {
      c.report_violation("invariant", "bookkeeping differs from serial");
    }
    ledger.report_to(c);
  });
  Gate g{"executor-exhaustive-bit-identity", std::move(rep), false};
  g.passed = g.report.ok() && g.report.exhausted;
  return g;
}

Gate gate_thread_async_walks(std::size_t walks, std::uint64_t seed) {
  const Csr a = trefethen(12);
  const Vector b(12, 1.0);
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandomWalk;
  opts.walks = walks;
  opts.seed = seed;
  opts.controller.max_steps = 400;
  ExploreReport rep = verify::explore(opts, [&](ScheduleController& c) {
    ThreadAsyncOptions o;
    o.num_threads = 2;
    o.block_size = 4;
    o.local_iters = 1;
    o.solve.max_iters = 3;
    o.solve.tol = 1e-12;
    const ThreadAsyncResult r = thread_async_solve(a, b, o);
    index_t total = 0;
    for (const index_t e : r.block_executions) total += e;
    if (total != r.total_block_executions) {
      c.report_violation("invariant", "block execution accounting mismatch");
    }
  });
  Gate g{"thread-async-walks", std::move(rep), false};
  g.passed = g.report.ok() && g.report.schedules == walks;
  return g;
}

Gate gate_service_walks(std::size_t walks, std::uint64_t seed) {
  const auto a = std::make_shared<const Csr>(fv_like(8, 0.5));
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandomWalk;
  opts.walks = walks;
  opts.seed = seed;
  opts.controller.max_steps = 4000;
  ExploreReport rep = verify::explore(opts, [&](ScheduleController& c) {
    service::ServiceOptions so;
    so.num_workers = 2;
    service::SolveService svc(so);
    std::vector<std::shared_ptr<service::Ticket>> tickets;
    for (int i = 0; i < 2; ++i) {
      service::SolveRequest req;
      req.matrix = a;
      req.b = Vector(static_cast<std::size_t>(a->rows()), 1.0);
      req.options.solve.max_iters = 200;
      req.options.solve.tol = 1e-8;
      req.options.block_size = 4;
      req.options.local_iters = 1;
      req.deadline = std::chrono::milliseconds(-1);
      tickets.push_back(svc.submit(std::move(req)));
    }
    tickets[1]->cancel();  // exercise the first-wins race every walk
    for (const auto& t : tickets) {
      const service::SolveResponse& r = t->wait();
      if (r.outcome != service::RequestOutcome::kSolved &&
          r.outcome != service::RequestOutcome::kCancelled) {
        c.report_violation("invariant",
                           std::string("unexpected outcome: ") +
                               service::to_string(r.outcome) + " (" +
                               r.error + ")");
      }
    }
    svc.shutdown(true);
    const std::string msg = verify::outcome_accounting_violation(svc.stats());
    if (!msg.empty()) c.report_violation("invariant", msg);
  });
  Gate g{"service-walks", std::move(rep), false};
  g.passed = g.report.ok() && g.report.schedules == walks;
  return g;
}

void write_json(const std::string& path, const std::vector<Gate>& gates,
                bool all_passed) {
  std::ofstream js(path);
  js << "{\n  \"harness\": \"verify_explore\",\n  \"passed\": "
     << (all_passed ? "true" : "false") << ",\n  \"gates\": [\n";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    js << "    {\"name\": \"" << g.name << "\", \"passed\": "
       << (g.passed ? "true" : "false")
       << ", \"schedules\": " << g.report.schedules
       << ", \"decisions\": " << g.report.decisions
       << ", \"max_depth\": " << g.report.max_depth
       << ", \"truncated\": " << g.report.truncated
       << ", \"exhausted\": " << (g.report.exhausted ? "true" : "false")
       << ", \"violations\": " << g.report.total_violations << "}"
       << (i + 1 < gates.size() ? "," : "") << '\n';
  }
  js << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  const auto unknown =
      args.unknown_keys({"walks", "seed", "out", "seeds-out", "help"});
  if (!unknown.empty()) {
    std::cerr << "verify_explore: unknown flag --" << unknown.front()
              << "\nvalid flags: --walks --seed --out --seeds-out; "
                 "see docs/VERIFY.md\n";
    return 2;
  }
  if (args.has("help")) {
    std::cout << "usage: verify_explore [--walks=2000] [--seed=1] "
                 "[--out=BENCH_verify.json] [--seeds-out=verify_failures.txt]"
                 "\nsee docs/VERIFY.md\n";
    return 0;
  }
  const std::size_t walks = static_cast<std::size_t>(
      std::max(2LL, args.get_int("walks", 2000)));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string out_path = args.get_string("out", "BENCH_verify.json");
  const std::string seeds_path =
      args.get_string("seeds-out", "verify_failures.txt");

  std::cout << "=== verify_explore ===\n"
            << "schedule exploration gate (docs/VERIFY.md); walks=" << walks
            << " seed=" << seed << "\n\n";

  std::vector<Gate> gates;
  gates.push_back(gate_worker_pool_exhaustive());
  gates.push_back(gate_executor_exhaustive());
  // The walk budget leans toward the cheap thread_async schedules; the
  // service walks are ~10x longer, so they get the smaller share.
  gates.push_back(gate_thread_async_walks(walks - walks / 4, seed));
  gates.push_back(gate_service_walks(walks / 4, seed + 1));

  bool all_passed = true;
  std::ofstream seeds(seeds_path);
  for (const Gate& g : gates) {
    std::cout << (g.passed ? "[PASS] " : "[FAIL] ") << g.name << ": "
              << g.report.summary() << '\n';
    dump_failures(seeds, g);
    all_passed = all_passed && g.passed;
  }
  write_json(out_path, gates, all_passed);
  std::cout << "\nreport: " << out_path << (all_passed ? " (all gates passed)"
                                                       : " (GATE FAILURE)")
            << '\n';
  return all_passed ? 0 : 1;
}
