/// Reproduces Fig. 5 and Tables 2-3: run-to-run variation of async-(5)
/// caused by non-deterministic scheduling, for fv1 (small off-block
/// mass) and Trefethen_2000 (large off-block mass), block size 128.
///
/// Flags: --runs=N   solver runs per matrix (default 200; paper: 1000)
///        --ufmc=<dir>

#include "bench_common.hpp"

#include <iostream>
#include <map>
#include <vector>

#include "core/block_async.hpp"
#include "stats/running_stats.hpp"

using namespace bars;

namespace {

void study(const TestProblem& p, index_t runs,
           const std::vector<index_t>& checkpoints, index_t max_iters,
           value_t jitter, value_t straggler_prob, value_t run_noise) {
  const Vector b = bench::unit_rhs(p.matrix.rows());
  std::map<index_t, RunningStats> stats;

  for (index_t run = 0; run < runs; ++run) {
    BlockAsyncOptions o;
    o.block_size = 128;  // paper Section 4.1 uses 128 here
    o.local_iters = 5;
    o.seed = 1000 + static_cast<std::uint64_t>(run);
    o.matrix_name = p.name;
    o.exact_history = true;  // the figure reads every history entry
    // The paper's Section 4.1 hypothesizes the GPU scheduler repeats a
    // pattern, so run-to-run differences are tiny perturbations of a
    // common schedule — model exactly that: one shared pattern seed,
    // per-run noise on top.
    o.jitter = jitter;
    o.straggler_prob = straggler_prob;
    o.pattern_seed = 7777;
    o.run_noise = run_noise;
    o.solve.max_iters = max_iters;
    o.solve.tol = 0.0;  // run to the full iteration count
    const BlockAsyncResult r = block_async_solve(p.matrix, b, o);
    for (index_t c : checkpoints) {
      if (c < static_cast<index_t>(r.solve.residual_history.size())) {
        stats[c].add(r.solve.residual_history[c]);
      }
    }
  }

  std::cout << "--- " << p.name << " (" << runs << " runs, async-(5), "
            << "block 128) ---\n";
  report::Table t({"# global iters", "averg. res.", "max. res.", "min. res.",
                   "abs. var.", "rel. var.", "variance", "std. dev.",
                   "std. err."});
  for (index_t c : checkpoints) {
    const RunningStats& s = stats[c];
    if (s.count() == 0) continue;
    t.add_row({report::fmt_int(c), report::fmt_sci(s.mean()),
               report::fmt_sci(s.max()), report::fmt_sci(s.min()),
               report::fmt_sci(s.absolute_variation()),
               report::fmt_sci(s.relative_variation()),
               report::fmt_sci(s.variance()), report::fmt_sci(s.stddev()),
               report::fmt_sci(s.standard_error())});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "fig5_stochastic_variation", {"ufmc", "runs", "jitter", "straggler", "run-noise"}))
    return rc;
  bench::banner("Fig. 5 / Tables 2-3 — stochastic variation",
                "paper Section 4.1");
  const auto runs = static_cast<index_t>(args.get_int("runs", 200));
  const value_t jitter = args.get_double("jitter", 0.20);
  const value_t straggler = args.get_double("straggler", 0.05);
  const value_t run_noise = args.get_double("run-noise", 2.0e-4);

  // fv1: paper checkpoints 10..150 (Table 2).
  {
    const TestProblem p =
        make_paper_problem(PaperMatrix::kFv1, bench::ufmc_dir(args));
    std::vector<index_t> cps;
    for (index_t c = 10; c <= 150; c += 10) cps.push_back(c);
    study(p, runs, cps, 150, jitter, straggler, run_noise);
  }
  // Trefethen_2000: paper checkpoints 5..50 (Table 3).
  {
    const TestProblem p = make_paper_problem(PaperMatrix::kTrefethen2000,
                                             bench::ufmc_dir(args));
    std::vector<index_t> cps;
    for (index_t c = 5; c <= 50; c += 5) cps.push_back(c);
    study(p, runs, cps, 50, jitter, straggler, run_noise);
  }
  std::cout
      << "Expected shape (paper): variation grows with the iteration count\n"
         "and is larger for Trefethen_2000 than for fv1 at matched counts\n"
         "(more off-block mass); both collapse at the rounding floor.\n"
         "Magnitudes: the paper reports O(1e-4..1e-3) for fv1 and up to\n"
         "~20% for Trefethen_2000; our discrete-event scheduler perturbs\n"
         "update interleavings more coarsely than real GPU timing noise,\n"
         "so absolute variations run larger (see EXPERIMENTS.md).\n";
  return 0;
}
