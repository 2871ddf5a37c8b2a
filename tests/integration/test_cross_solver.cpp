/// Cross-solver consistency: every solver in the library must agree on
/// the solution of the same well-posed systems (parameterized sweep).

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/block_async.hpp"
#include "core/cg.hpp"
#include "core/gauss_seidel.hpp"
#include "core/jacobi.hpp"
#include "core/thread_async.hpp"
#include "matrices/generators.hpp"
#include "sparse/dense.hpp"

namespace bars {
namespace {

struct CaseSpec {
  const char* name;
  Csr (*make)();
};

Csr make_fv() { return fv_like(12, 0.7); }
Csr make_tref() { return trefethen(150); }
Csr make_chem() { return chem97ztz_like(151, 0.6); }
Csr make_rand() { return random_spd(120, 4, 1.8, 2024); }

// Without a printer gtest shows a CaseSpec as its raw bytes, two
// addresses included, and the test names ctest discovers then change
// from one build to the next.
void PrintTo(const CaseSpec& spec, std::ostream* os) { *os << spec.name; }

class CrossSolver : public ::testing::TestWithParam<CaseSpec> {};

Vector rhs_for(const Csr& a) {
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = std::sin(0.1 * static_cast<double>(i)) + 0.5;
  }
  return b;
}

TEST_P(CrossSolver, AllSolversAgreeWithDirectSolve) {
  const CaseSpec& spec = GetParam();
  const Csr a = spec.make();
  const Vector b = rhs_for(a);
  const Vector ref = Dense::from_csr(a).solve(b);

  SolveOptions so;
  so.max_iters = 50000;
  so.tol = 1e-12;

  const auto check = [&](const Vector& x, const char* solver) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_NEAR(x[i], ref[i], 1e-7) << solver << " on " << spec.name;
    }
  };

  check(jacobi_solve(a, b, so).x, "jacobi");
  check(gauss_seidel_solve(a, b, so).x, "gauss_seidel");
  {
    CgOptions co;
    co.solve = so;
    check(cg_solve(a, b, co).x, "cg");
  }
  {
    BlockAsyncOptions o;
    o.solve = so;
    o.block_size = 48;
    o.local_iters = 2;
    check(block_async_solve(a, b, o).solve.x, "block_async");
  }
  {
    ThreadAsyncOptions o;
    o.solve = so;
    o.solve.max_iters = 100000;
    o.block_size = 48;
    o.num_threads = 2;
    check(thread_async_solve(a, b, o).solve.x, "thread_async");
  }
}

TEST_P(CrossSolver, ResidualHistoriesReachTolerance) {
  const CaseSpec& spec = GetParam();
  const Csr a = spec.make();
  const Vector b = rhs_for(a);
  SolveOptions so;
  so.max_iters = 50000;
  so.tol = 1e-10;
  for (const SolveResult& r :
       {jacobi_solve(a, b, so), gauss_seidel_solve(a, b, so)}) {
    ASSERT_TRUE(r.ok()) << spec.name;
    EXPECT_LE(r.residual_history.back(), so.tol);
    EXPECT_EQ(r.residual_history.size(),
              static_cast<std::size_t>(r.iterations) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, CrossSolver,
    ::testing::Values(CaseSpec{"fv", make_fv}, CaseSpec{"trefethen",
                                                        make_tref},
                      CaseSpec{"chem", make_chem}, CaseSpec{"random",
                                                            make_rand}),
    [](const ::testing::TestParamInfo<CaseSpec>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bars
