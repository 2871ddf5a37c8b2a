/// Domain example: detecting silent data corruption from the residual
/// history alone — the closing idea of the paper's Section 4.5
/// ("a convergence delay ... indicates that a silent error has
/// occurred"). A bit-flip-scale corruption is injected mid-solve; the
/// detector flags the jump, and the asynchronous iteration then heals
/// itself and still converges to the true solution.
///
///   build/examples/silent_error_detection

#include <iostream>

#include "core/block_async.hpp"
#include "core/silent_error.hpp"
#include "matrices/generators.hpp"

int main() {
  using namespace bars;
  const Csr a = trefethen(2000);
  const Vector b(2000, 1.0);

  BlockAsyncOptions o;
  o.block_size = 448;
  o.local_iters = 5;
  o.matrix_name = "Trefethen_2000";
  o.solve.max_iters = 500;
  o.solve.tol = 1e-12;

  // Clean run: detector must stay silent.
  const BlockAsyncResult clean = block_async_solve(a, b, o);
  const SilentErrorReport clean_report =
      detect_silent_error(clean.solve.residual_history);
  std::cout << "clean run:     converged in " << clean.solve.iterations
            << " iterations, detector says "
            << (clean_report.detected ? "CORRUPTED (false positive!)"
                                      : "healthy")
            << "\n";

  // Corrupted run: one component silently overwritten at iteration 12.
  o.scenario = resilience::FaultScenario{}.corrupt_iterate(
      /*at=*/12, /*magnitude=*/1.0e9);
  const BlockAsyncResult bad = block_async_solve(a, b, o);
  const SilentErrorReport bad_report =
      detect_silent_error(bad.solve.residual_history);
  std::cout << "corrupted run: "
            << (bad.solve.ok() ? "converged (self-healed)"
                               : "did not converge")
            << " in " << bad.solve.iterations << " iterations\n";
  if (bad_report.detected) {
    std::cout << "detector:      silent error flagged at global iteration "
              << bad_report.at_iteration << " (residual jumped "
              << bad_report.jump_ratio << "x)\n";
  } else {
    std::cout << "detector:      MISSED the corruption\n";
  }
  std::cout << "\nThe asynchronous method pays only a time penalty ("
            << bad.solve.iterations - clean.solve.iterations
            << " extra iterations) and needs no checkpoint/restart —\nthe "
               "paper's exascale-resilience argument, Section 4.5.\n";
  return clean.solve.ok() && !clean_report.detected && bad.solve.ok() &&
                 bad_report.detected
             ? 0
             : 1;
}
