/// Reproduces Fig. 7: convergence rate of async-(5) against
/// Gauss-Seidel, counting global iterations (each component updated
/// five times per global iteration by the local sweeps).
///
/// Flags: --iters=N, --csv, --ufmc=<dir>

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"
#include "core/gauss_seidel.hpp"

using namespace bars;

namespace {

value_t at(const std::vector<value_t>& h, index_t i) {
  if (h.empty()) return 0.0;
  return h[std::min<std::size_t>(static_cast<std::size_t>(i), h.size() - 1)];
}

index_t iters_to(const std::vector<value_t>& h, value_t tol) {
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] <= tol) return static_cast<index_t>(i);
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "fig7_convergence_async5", {"ufmc", "csv", "iters"}))
    return rc;
  bench::banner("Fig. 7 — convergence of async-(5) vs Gauss-Seidel",
                "paper Section 4.3");
  const bool csv = args.has("csv");

  for (const TestProblem& p : make_paper_suite(bench::ufmc_dir(args))) {
    if (p.name == "Trefethen_20000") continue;
    const bool slow = p.name == "fv3";
    const auto iters = static_cast<index_t>(
        args.get_int("iters", slow ? 25000 : 200));

    const Vector b = bench::unit_rhs(p.matrix.rows());
    SolveOptions so;
    so.max_iters = iters;
    so.tol = 1e-15;
    so.divergence_limit = 1e3;

    const SolveResult gs = gauss_seidel_solve(p.matrix, b, so);
    BlockAsyncOptions ao;
    ao.solve = so;
    ao.block_size = 448;
    ao.local_iters = 5;
    ao.matrix_name = p.name;
    ao.exact_history = true;  // the figure plots every history entry
    const BlockAsyncResult as = block_async_solve(p.matrix, b, ao);

    std::cout << "--- " << p.name << " ---\n";
    report::Table t(
        {"# iters", "Gauss-Seidel (CPU)", "async-(5) (GPU)"});
    const index_t step = std::max<index_t>(iters / 8, 1);
    for (index_t i = 0; i <= iters; i += step) {
      t.add_row({report::fmt_int(i),
                 report::fmt_sci(at(gs.residual_history, i), 2),
                 report::fmt_sci(at(as.solve.residual_history, i), 2)});
    }
    t.print(std::cout);
    const index_t gs_it = iters_to(gs.residual_history, 1e-10);
    const index_t as_it = iters_to(as.solve.residual_history, 1e-10);
    std::cout << "  global iterations to 1e-10:  GS=" << gs_it
              << "  async-(5)=" << as_it;
    if (gs_it > 0 && as_it > 0) {
      std::cout << "  speedup="
                << report::fmt_fixed(
                       static_cast<double>(gs_it) /
                           static_cast<double>(as_it),
                       2)
                << "x";
    }
    std::cout << "\n\n";
    if (csv) {
      report::write_csv(std::cout, {"gs", "async5"},
                        {gs.residual_history, as.solve.residual_history});
    }
  }
  std::cout
      << "Expected shape (paper): async-(5) ~2x faster than GS per global\n"
         "iteration on fv1/fv2/fv3; Jacobi-like (no gain) on Chem97ZtZ;\n"
         "intermediate on Trefethen_2000; both diverge on s1rmt3m1.\n";
  return 0;
}
