/// Domain example: solving through simulated hardware failures
/// (paper Section 4.5). Three levels of resilience:
///
///   1. Passive (the paper's observation): failed components are
///      reassigned by the runtime after a delay; the asynchronous
///      iteration absorbs the fault with only a bounded slowdown.
///   2. Scripted scenarios: composable fault timelines — several
///      failure waves, transient halo corruption — via
///      resilience::FaultScenario.
///   3. Active recovery: a resilience::Policy adds checkpointing,
///      online silent-error detection with rollback, and a watchdog
///      that reassigns stalled components on its own.
///
///   build/examples/fault_tolerant_solve

#include <iostream>

#include "core/block_async.hpp"
#include "matrices/generators.hpp"

int main() {
  using namespace bars;

  const Csr a = trefethen(2000);
  const Vector b(2000, 1.0);

  const auto run = [&](const char* label, const BlockAsyncOptions& opts) {
    const BlockAsyncResult r = block_async_solve(a, b, opts);
    std::cout << label << ": "
              << (r.solve.ok() ? "converged" : "STAGNATED") << " after "
              << r.solve.iterations << " global iterations (residual "
              << r.solve.final_residual << ")\n";
    return r;
  };
  const auto base = [] {
    BlockAsyncOptions o;
    o.block_size = 448;
    o.local_iters = 5;
    o.matrix_name = "Trefethen_2000";
    o.solve.tol = 1e-12;
    o.solve.max_iters = 500;
    return o;
  };

  // 1. Passive fault tolerance (the paper's single failure event).
  const auto clean = run("no failure           ", base());

  BlockAsyncOptions rec_opts = base();
  rec_opts.scenario = resilience::FaultScenario{}.fail_components(
      /*at=*/10, /*fraction=*/0.25, /*recover_after=*/20);
  const auto rec = run("25% fail, recover(20)", rec_opts);

  if (clean.solve.ok() && rec.solve.ok()) {
    const double extra = 100.0 *
                         (static_cast<double>(rec.solve.iterations) /
                              static_cast<double>(clean.solve.iterations) -
                          1.0);
    std::cout << "recovery cost only " << extra
              << "% extra iterations — no checkpointing needed "
                 "(paper Table 6 reports 8-32%).\n\n";
  }

  // 2. A scripted timeline: two failure waves plus a burst of corrupted
  // halo reads while the first wave is down.
  resilience::FaultScenario script;
  script.fail_components(/*at=*/10, /*fraction=*/0.25, /*recover_after=*/20)
      .fail_components(/*at=*/45, /*fraction=*/0.10, /*recover_after=*/20)
      .corrupt_halo(/*at=*/15, /*duration=*/5, /*magnitude=*/1e3,
                    /*probability=*/0.1);
  BlockAsyncOptions scripted = base();
  scripted.scenario = script;
  const auto waves = run("scripted two waves   ", scripted);
  std::cout << "(" << waves.resilience.halo_corruptions
            << " halo reads corrupted along the way)\n\n";

  // 3. Active recovery: nobody reassigns this failure — the watchdog
  // notices the contraction stall and frees the components itself.
  resilience::FaultScenario permanent;
  permanent.fail_components(10, 0.25, /*recover_after=*/std::nullopt);
  BlockAsyncOptions unsupervised = base();
  unsupervised.solve.max_iters = 200;
  unsupervised.scenario = permanent;
  (void)run("permanent, no watchdog", unsupervised);

  BlockAsyncOptions supervised = base();
  supervised.scenario = permanent;
  supervised.resilience = resilience::Policy{};  // defaults: all on
  const auto guarded = run("permanent, watchdog  ", supervised);
  std::cout << "watchdog reassigned " << guarded.resilience.components_reassigned
            << " components in " << guarded.resilience.watchdog_reassignments
            << " event(s); " << guarded.resilience.checkpoints_saved
            << " checkpoints were kept for rollback.\n";

  return clean.solve.ok() && rec.solve.ok() &&
                 waves.solve.ok() && guarded.solve.ok()
             ? 0
             : 1;
}
