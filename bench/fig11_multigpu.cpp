/// Reproduces Fig. 11: time-to-convergence of the multi-GPU
/// block-asynchronous iteration on Trefethen_20000 for the AMC, DC and
/// DK communication schemes with 1-4 GPUs (initialization overhead
/// excluded, as in the paper).
///
/// Flags: --tol=1e-10, --n=20000 (matrix size), --ufmc=<dir>

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "fig11_multigpu", {"ufmc", "tol"}))
    return rc;
  bench::banner("Fig. 11 — multi-GPU time-to-convergence (Trefethen_20000)",
                "paper Section 4.6");
  const value_t tol = args.get_double("tol", 1e-10);

  const TestProblem p =
      make_paper_problem(PaperMatrix::kTrefethen20000, bench::ufmc_dir(args));
  const Vector b = bench::unit_rhs(p.matrix.rows());

  report::Table t({"scheme", "1 GPU [s]", "2 GPUs [s]", "3 GPUs [s]",
                   "4 GPUs [s]", "best speedup"});
  for (auto scheme :
       {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
        gpusim::TransferScheme::kDK}) {
    std::vector<std::string> row{to_string(scheme)};
    value_t t1 = 0.0, best = 1e300;
    for (index_t devices = 1; devices <= 4; ++devices) {
      BlockAsyncOptions o;
      o.num_devices = devices;
      o.scheme = scheme;
      o.block_size = 448;
      o.local_iters = 5;
      o.matrix_name = p.name;
      o.solve.max_iters = 2000;
      o.solve.tol = tol;
      o.seed = 17;
      const BlockAsyncResult r = block_async_solve(p.matrix, b, o);
      if (!r.solve.ok()) {
        row.push_back("n/c(" + std::to_string(r.solve.iterations) + ")");
        continue;
      }
      if (devices == 1) t1 = r.virtual_time;
      best = std::min(best, r.virtual_time);
      row.push_back(report::fmt_fixed(r.virtual_time, 3) + " (" +
                    report::fmt_int(r.solve.iterations) + " it)");
    }
    row.push_back(t1 > 0.0 ? report::fmt_fixed(t1 / best, 2) + "x" : "-");
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout
      << "\nExpected shape (paper): AMC nearly halves at 2 GPUs, dips at 3\n"
         "(QPI hop), recovers at 4 (still < 2x); DC/DK show only small\n"
         "improvements (master-GPU PCIe link is the bottleneck).\n";
  return 0;
}
