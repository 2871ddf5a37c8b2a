/// SIMD backend speed gate: with the kernels prebuilt (the plan-cache
/// steady state), the AVX2/FMA kernel must solve at least 1.3× faster
/// than the scalar kernel on at least two of four paper matrices.
///
/// Each matrix's two kernels are built once with build_kernel, then
/// timed as whole block_async_solve_with_kernel calls in back-to-back
/// pairs whose order alternates. The gate applies to the median of the
/// per-pair scalar/SIMD time ratios, so host speed drift, which moves
/// both halves of a pair, cancels out. Prints each matrix's median and
/// [min, max] ratio.
///
/// Takes no flags and writes no files. Exit status: 0 = pass, or
/// skipped on a machine/build without AVX2+FMA; 1 = gate failed;
/// 2 = an argument was given.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "backend/simd_kernel.hpp"
#include "bench_common.hpp"
#include "core/block_async.hpp"
#include "report/table.hpp"

using namespace bars;

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "backend_gate: takes no arguments (got " << argv[1]
              << ")\n";
    return 2;
  }
  if (!backend::simd_available()) {
    std::cout << "backend gate skipped: the simd backend is not available "
                 "on this machine/build\n";
    return 0;
  }

  constexpr double kSpeedupGate = 1.3;
  constexpr int kMinFastMatrices = 2;
  constexpr int kPairs = 9;
  std::cout << "backend gate: scalar/simd wall-time ratio of prebuilt "
               "async-(5) solves (block 256, 100 iterations), median of "
            << kPairs << " alternating pairs; hardware threads: "
            << std::thread::hardware_concurrency() << "\n";

  int fast_matrices = 0;
  for (const PaperMatrix which :
       {PaperMatrix::kChem97ZtZ, PaperMatrix::kFv3,
        PaperMatrix::kTrefethen2000, PaperMatrix::kTrefethen20000}) {
    const TestProblem p = make_paper_problem(which);
    const Vector b = bench::unit_rhs(p.matrix.rows());
    BlockAsyncOptions o;
    o.solve.max_iters = 100;
    o.solve.tol = 1e-10;
    o.block_size = 256;
    o.local_iters = 5;
    o.policy = gpusim::SchedulePolicy::kRoundRobin;
    o.concurrent_slots = 64;
    const RowPartition part =
        RowPartition::uniform(p.matrix.rows(), o.block_size);
    const auto scalar =
        backend::build_kernel("scalar", p.matrix, b, part, {o.local_iters});
    const auto simd =
        backend::build_kernel("simd", p.matrix, b, part, {o.local_iters});
    const auto seconds = [&](backend::BlockSweepKernel& kernel) {
      const auto t0 = std::chrono::steady_clock::now();
      static_cast<void>(block_async_solve_with_kernel(p.matrix, b, kernel, o));
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      return dt.count();
    };

    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
      double ts = 0.0;
      double tv = 0.0;
      if (pair % 2 == 0) {
        ts = seconds(*scalar);
        tv = seconds(*simd);
      } else {
        tv = seconds(*simd);
        ts = seconds(*scalar);
      }
      ratios.push_back(tv > 0.0 ? ts / tv : 0.0);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[kPairs / 2];
    if (median >= kSpeedupGate) ++fast_matrices;
    std::cout << "  " << p.name << ": median "
              << report::fmt_fixed(median, 2) << "x ["
              << report::fmt_fixed(ratios.front(), 2) << ", "
              << report::fmt_fixed(ratios.back(), 2) << "]\n";
  }

  const bool pass = fast_matrices >= kMinFastMatrices;
  std::cout << "backend gate: " << fast_matrices << "/4 matrices >= "
            << kSpeedupGate << "x (need >= " << kMinFastMatrices << ") -> "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
