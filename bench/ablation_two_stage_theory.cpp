/// Ablation: theory vs. measurement. The exact two-stage iteration
/// operator T_k = I - P_k A gives rho(T_k), the convergence rate of the
/// synchronized skeleton of async-(k); comparing with the measured
/// asynchronous contraction quantifies the chaos penalty per local
/// iteration count (small verification problem so the dense operator is
/// tractable).

#include "bench_common.hpp"

#include <cmath>
#include <iostream>

#include "core/block_async.hpp"
#include "eigen/two_stage.hpp"
#include "matrices/generators.hpp"
#include "stats/convergence.hpp"

using namespace bars;

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(
          args, "ablation_two_stage_theory", {"m"}))
    return rc;
  bench::banner("Ablation — two-stage operator theory vs async measurement",
                "synchronous rate rho(T_k) against measured async-(k)");

  const index_t m = static_cast<index_t>(args.get_int("m", 20));
  const Csr a = fv_like(m, fv_reaction_for_rho(m, 0.8541));
  const index_t block = 64;
  const RowPartition part = RowPartition::uniform(a.rows(), block);
  const Vector b = bench::unit_rhs(a.rows());

  report::Table t({"k", "rho(T_k) theory", "async-(k) measured",
                   "chaos penalty"});
  for (index_t k : {1, 2, 3, 5, 7, 9}) {
    const value_t rho = two_stage_spectral_radius(a, part, k);

    BlockAsyncOptions o;
    o.block_size = block;
    o.local_iters = k;
    o.solve.max_iters = 400;
    o.solve.tol = 0.0;
    o.exact_history = true;  // the contraction fit reads the history
    const BlockAsyncResult r = block_async_solve(a, b, o);
    const value_t measured =
        contraction_factor(r.solve.residual_history, 100);
    const double penalty = measured > 0.0 && rho > 0.0 && rho < 1.0
                               ? std::log(measured) / std::log(rho)
                               : 0.0;
    t.add_row({report::fmt_int(k), report::fmt_fixed(rho, 4),
               report::fmt_fixed(measured, 4),
               report::fmt_fixed(penalty, 3)});
  }
  t.print(std::cout);
  std::cout << "\n(chaos penalty < 1 means the async run converged slower "
               "than the\nsynchronized rate; ~1 means asynchrony was free "
               "at this dominance level.)\n";
  return 0;
}
