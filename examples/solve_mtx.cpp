/// Command-line solver: load a MatrixMarket system and solve it with
/// any solver in the registry (the downstream-user entry point).
///
///   build/examples/solve_mtx --matrix=path/to/A.mtx \
///       [--solver=block-async] [--tol=1e-10] [--max-iters=1000]
///       [--block-size=448] [--local-iters=5] [--omega=1.0] [--rcm]
///       [--backend=scalar|simd|auto] [--events=run.jsonl]
///
/// Without --matrix, solves the built-in Trefethen_2000 demo system.
/// Every run is observed through the telemetry subsystem; a summary
/// table of the collected metrics is printed after the solve, and
/// --events streams the full event log as JSON Lines.

#include <fstream>
#include <iostream>
#include <memory>

#include "backend/registry.hpp"
#include "core/registry.hpp"
#include "matrices/generators.hpp"
#include "report/args.hpp"
#include "report/table.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/reorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/sinks.hpp"

int main(int argc, char** argv) {
  using namespace bars;
  const report::Args args(argc, argv);

  const auto unknown = args.unknown_keys(
      {"matrix", "solver", "tol", "max-iters", "block-size", "local-iters",
       "omega", "seed", "rcm", "backend", "events", "help"});
  if (!unknown.empty()) {
    std::cerr << "solve_mtx: unknown flag --" << unknown.front()
              << "\nrun with --help for the flag list; the solver knobs are "
                 "documented in docs/API.md and docs/TUTORIAL.md\n";
    return 2;
  }

  if (args.has("help")) {
    std::cout << "usage: solve_mtx [--matrix=A.mtx] [--solver=NAME] "
                 "[--tol=..] [--max-iters=..]\n       [--block-size=..] "
                 "[--local-iters=..] [--omega=..] [--rcm] "
                 "[--backend=NAME] [--events=out.jsonl]\nsolvers:";
    for (const auto& n : solver_names()) std::cout << ' ' << n;
    std::cout << "\nbackends:";
    for (const auto& n : backend::backend_names()) std::cout << ' ' << n;
    std::cout << " auto\n";
    return 0;
  }

  const std::string path = args.get_string("matrix", "");
  Csr a = path.empty() ? trefethen(2000) : read_matrix_market_file(path);
  std::cout << (path.empty() ? "built-in Trefethen_2000" : path) << ": n = "
            << a.rows() << ", nnz = " << a.nnz() << '\n';
  if (a.rows() != a.cols()) {
    std::cerr << "matrix must be square\n";
    return 1;
  }

  Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  Permutation perm;
  if (args.has("rcm")) {
    perm = reverse_cuthill_mckee(a);
    a = permute_symmetric(a, perm);
    b = permute_vector(b, perm);
    std::cout << "applied RCM reordering\n";
  }

  RegistrySolveOptions o;
  o.solve.tol = args.get_double("tol", 1e-10);
  o.solve.max_iters = args.get_int("max-iters", 5000);
  o.block_size = args.get_int("block-size", 448);
  o.local_iters = args.get_int("local-iters", 5);
  o.omega = args.get_double("omega", 1.0);
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 99));
  o.backend = args.get_string("backend", "scalar");

  // Observe the solve: metrics always, event stream on request.
  telemetry::MetricsRegistry registry;
  telemetry::MetricsObserver metrics_observer(registry);
  telemetry::MultiObserver observers;
  observers.add(&metrics_observer);
  std::ofstream events_file;
  std::unique_ptr<telemetry::JsonLinesSink> events_sink;
  const std::string events_path = args.get_string("events", "");
  if (!events_path.empty()) {
    events_file.open(events_path);
    if (!events_file) {
      std::cerr << "cannot open " << events_path << " for writing\n";
      return 1;
    }
    events_sink = std::make_unique<telemetry::JsonLinesSink>(events_file);
    observers.add(events_sink.get());
  }
  o.solve.telemetry.observer = &observers;
  o.solve.telemetry.metrics = &registry;

  const std::string solver = args.get_string("solver", "block-async");
  std::cout << "solver: " << solver << '\n';
  SolveResult r;
  try {
    // Throws for unknown solver names and for solvers that reject the
    // matrix (the multigrid entries require fv_like structure).
    r = find_solver(solver)(a, b, o);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  std::cout << to_string(r.status) << " after " << r.iterations
            << " iterations, final relative residual " << r.final_residual
            << '\n';

  const telemetry::Histogram& staleness =
      registry.histogram("commit_staleness", {});
  const auto count = [&](std::string_view name) {
    return report::fmt_int(
        static_cast<long long>(registry.counter(name).value()));
  };
  report::Table t({"telemetry metric", "value"});
  t.add_row({"status", std::string(to_string(r.status))});
  t.add_row({"iterations", count("solve_iterations")});
  t.add_row({"block_commits", count("block_commits")});
  t.add_row({"recovery_events", count("recovery_events")});
  t.add_row({"mean_commit_staleness",
             staleness.total() > 0
                 ? report::fmt_fixed(staleness.sum() /
                                         static_cast<value_t>(
                                             staleness.total()),
                                     3)
                 : "n/a"});
  t.add_row({"final_residual", report::fmt_sci(r.final_residual)});
  t.add_row({"wall_seconds",
             report::fmt_fixed(
                 registry.gauge("last_solve_wall_seconds").value())});
  t.print(std::cout);
  if (!events_path.empty()) {
    std::cout << "event log written to " << events_path << '\n';
  }
  return r.ok() ? 0 : 1;
}
