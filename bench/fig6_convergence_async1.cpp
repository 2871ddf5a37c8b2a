/// Reproduces Fig. 6: residual vs iteration count for Gauss-Seidel
/// (CPU), Jacobi (GPU) and async-(1) (GPU) on the six single-GPU test
/// matrices. Prints the residual at the paper's plot checkpoints.
///
/// Flags: --iters=N  max iterations (default: 200; fv3 uses 25000)
///        --csv      emit full histories as CSV after each table
///        --ufmc=<dir>

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"
#include "core/gauss_seidel.hpp"
#include "core/jacobi.hpp"

using namespace bars;

namespace {

value_t at(const std::vector<value_t>& h, index_t i) {
  if (h.empty()) return 0.0;
  const auto idx = std::min<std::size_t>(static_cast<std::size_t>(i),
                                         h.size() - 1);
  return h[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "fig6_convergence_async1", {"ufmc", "csv", "iters"}))
    return rc;
  bench::banner("Fig. 6 — convergence of async-(1) vs Gauss-Seidel/Jacobi",
                "paper Section 4.2");
  const bool csv = args.has("csv");

  for (const TestProblem& p : make_paper_suite(bench::ufmc_dir(args))) {
    if (p.name == "Trefethen_20000") continue;  // multi-GPU only (Fig 11)
    const bool slow = p.name == "fv3";
    const auto iters = static_cast<index_t>(
        args.get_int("iters", slow ? 25000 : 200));

    const Vector b = bench::unit_rhs(p.matrix.rows());
    SolveOptions so;
    so.max_iters = iters;
    so.tol = 1e-15;
    so.divergence_limit = 1e3;  // the paper's plots stop around 1e+3

    const SolveResult gs = gauss_seidel_solve(p.matrix, b, so);
    const SolveResult jac = jacobi_solve(p.matrix, b, so);
    BlockAsyncOptions ao;
    ao.solve = so;
    ao.block_size = 448;  // paper Section 3.2
    ao.local_iters = 1;
    ao.matrix_name = p.name;
    ao.exact_history = true;  // the figure plots every history entry
    const BlockAsyncResult as = block_async_solve(p.matrix, b, ao);

    std::cout << "--- " << p.name << " ---\n";
    report::Table t({"# iters", "Gauss-Seidel (CPU)", "Jacobi (GPU)",
                     "async-(1) (GPU)"});
    const index_t step = std::max<index_t>(iters / 8, 1);
    for (index_t i = 0; i <= iters; i += step) {
      t.add_row({report::fmt_int(i),
                 report::fmt_sci(at(gs.residual_history, i), 2),
                 report::fmt_sci(at(jac.residual_history, i), 2),
                 report::fmt_sci(at(as.solve.residual_history, i), 2)});
    }
    t.print(std::cout);
    const auto verdict = [](const SolveResult& r) {
      return (r.status == bars::SolverStatus::kDiverged) ? "DIVERGED"
                        : (r.ok() ? "converged" : "not converged");
    };
    std::cout << "  GS: " << verdict(gs) << " @" << gs.iterations
              << "  Jacobi: " << verdict(jac) << " @" << jac.iterations
              << "  async-(1): " << verdict(as.solve) << " @"
              << as.solve.iterations << "\n\n";
    if (csv) {
      report::write_csv(
          std::cout, {"gs", "jacobi", "async1"},
          {gs.residual_history, jac.residual_history,
           as.solve.residual_history});
    }
  }
  std::cout << "Expected shape (paper): GS clearly fastest per iteration;\n"
               "async-(1) tracks Jacobi; everything diverges on s1rmt3m1.\n";
  return 0;
}
