/// Reproduces Fig. 9: relative residual over (virtual) solver runtime
/// for Gauss-Seidel (CPU), Jacobi (GPU), async-(5) (GPU) and CG (GPU)
/// on Chem97ZtZ, fv1, fv3 and Trefethen_2000.
///
/// Iteration counts are measured by the real solvers; per-iteration
/// times come from the paper-calibrated cost model.
///
/// Flags: --ufmc=<dir>, --tol=..., --csv

#include "bench_common.hpp"

#include <iostream>

#include "core/block_async.hpp"
#include "core/cg.hpp"
#include "core/gauss_seidel.hpp"
#include "core/jacobi.hpp"
#include "gpusim/cost_model.hpp"

using namespace bars;

namespace {

/// Time to first history entry <= level, given seconds per iteration.
value_t time_to_level(const std::vector<value_t>& h, value_t per_iter,
                      value_t level) {
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] <= level) return per_iter * static_cast<value_t>(i);
  }
  return -1.0;
}

std::string cell(value_t t) {
  return t < 0.0 ? std::string("-") : report::fmt_fixed(t, 4);
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "fig9_residual_vs_time", {"ufmc", "tol", "csv"}))
    return rc;
  bench::banner("Fig. 9 — residual vs (virtual) runtime",
                "paper Section 4.4");
  const value_t tol = args.get_double("tol", 1e-12);
  const gpusim::CostModel model = gpusim::CostModel::calibrated_to_paper();

  for (PaperMatrix id : {PaperMatrix::kChem97ZtZ, PaperMatrix::kFv1,
                         PaperMatrix::kFv3, PaperMatrix::kTrefethen2000}) {
    const TestProblem p = make_paper_problem(id, bench::ufmc_dir(args));
    const Vector b = bench::unit_rhs(p.matrix.rows());
    const gpusim::MatrixShape shape{p.name, p.matrix.rows(),
                                    p.matrix.nnz()};
    const bool slow = p.name == "fv3";

    SolveOptions so;
    so.max_iters = slow ? 60000 : 3000;
    so.tol = tol;

    const SolveResult gs = gauss_seidel_solve(p.matrix, b, so);
    const SolveResult jac = jacobi_solve(p.matrix, b, so);
    CgOptions co;
    co.solve = so;
    const SolveResult cg = cg_solve(p.matrix, b, co);
    BlockAsyncOptions ao;
    ao.solve = so;
    ao.block_size = 448;
    ao.local_iters = 5;
    ao.matrix_name = p.name;
    ao.exact_history = true;  // the figure plots every history entry
    const BlockAsyncResult as = block_async_solve(p.matrix, b, ao);

    const value_t t_gs = model.host_gauss_seidel_iteration(shape);
    const value_t t_jac = model.gpu_jacobi_iteration(shape);
    const value_t t_cg = model.gpu_cg_iteration(shape);

    std::cout << "--- " << p.name << " (time in virtual seconds to reach "
              << "residual level) ---\n";
    report::Table t({"rel. residual", "Gauss-Seidel", "Jacobi", "async-(5)",
                     "CG"});
    for (value_t level : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12}) {
      // async-(5) carries its own virtual-time axis from the executor.
      value_t as_time = -1.0;
      for (std::size_t i = 0; i < as.solve.residual_history.size(); ++i) {
        if (as.solve.residual_history[i] <= level) {
          as_time = as.solve.time_history[i];
          break;
        }
      }
      t.add_row({report::fmt_sci(level, 0),
                 cell(time_to_level(gs.residual_history, t_gs, level)),
                 cell(time_to_level(jac.residual_history, t_jac, level)),
                 cell(as_time),
                 cell(time_to_level(cg.residual_history, t_cg, level))});
    }
    t.print(std::cout);
    std::cout << '\n';
    if (args.has("csv")) {
      report::write_csv(std::cout, {"gs", "jacobi", "async5", "cg"},
                        {gs.residual_history, jac.residual_history,
                         as.solve.residual_history, cg.residual_history});
    }
  }
  std::cout
      << "Expected shape (paper): async-(5) ~2x faster than Jacobi, both\n"
         "orders of magnitude ahead of CPU GS; CG fastest on fv1/fv3,\n"
         "but async-(5) wins on Chem97ZtZ and Trefethen_2000.\n";
  return 0;
}
