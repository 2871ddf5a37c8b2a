/// Residual proxy: the monitor's stand-in for the exact residual must
/// never change what a solve does. Every config of the grid below is
/// solved twice, with the default proxy monitor and with
/// exact_history = true, and the two must agree bit for bit on the
/// iterate, iteration count, status and final residual.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "backend/registry.hpp"
#include "core/block_async.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "matrices/generators.hpp"
#include "sparse/coo.hpp"
#include "sparse/vector_ops.hpp"

namespace bars::gpusim {
namespace {

struct Matrix {
  std::string name;
  Csr a;
};

Matrix make_matrix(const std::string& name) {
  if (name == "trefethen_2000") return {name, trefethen(2000)};
  // "fv<m>_<rho>": fv_like(m) with Jacobi spectral radius rho.
  const index_t m = std::stoll(name.substr(2, name.find('_') - 2));
  const value_t rho = std::stod(name.substr(name.find('_') + 1));
  return {name, fv_like(m, fv_reaction_for_rho(m, rho))};
}

std::string describe(const BlockAsyncOptions& o) {
  std::ostringstream s;
  s << "async-(" << o.local_iters << ") " << o.backend << " policy "
    << static_cast<int>(o.policy) << " workers " << o.num_workers << " tol "
    << o.solve.tol;
  return s.str();
}

class ProxyIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(ProxyIdentity, MatchesExactMonitorBitForBit) {
  const Matrix mat = make_matrix(GetParam());
  const Vector b(static_cast<std::size_t>(mat.a.rows()), 1.0);
  int configs = 0;
  int differences = 0;
  for (const index_t k : {1, 5}) {
    for (const char* backend : {"scalar", "simd"}) {
      for (const SchedulePolicy policy :
           {SchedulePolicy::kRoundRobin, SchedulePolicy::kJittered,
            SchedulePolicy::kShuffled}) {
        for (const value_t tol : {1e-6, 1e-10, 1e-14}) {
          std::vector<value_t> serial_history;
          for (const index_t workers : {0, 3}) {
            BlockAsyncOptions o;
            o.local_iters = k;
            o.backend = backend;
            o.policy = policy;
            o.num_workers = workers;
            o.solve.tol = tol;
            const BlockAsyncResult proxy = block_async_solve(mat.a, b, o);
            o.exact_history = true;
            const BlockAsyncResult exact = block_async_solve(mat.a, b, o);
            ++configs;
            const bool same =
                proxy.solve.x == exact.solve.x &&
                proxy.solve.iterations == exact.solve.iterations &&
                proxy.solve.status == exact.solve.status &&
                proxy.solve.final_residual == exact.solve.final_residual;
            if (!same) {
              ++differences;
              ADD_FAILURE() << mat.name << ' ' << describe(o)
                            << ": proxy stopped after "
                            << proxy.solve.iterations << " iterations at "
                            << proxy.solve.final_residual << ", exact after "
                            << exact.solve.iterations << " at "
                            << exact.solve.final_residual;
            }
            if (exact.solve.ok()) {
              EXPECT_EQ(proxy.solve.final_residual,
                        relative_residual(mat.a, b, proxy.solve.x))
                  << mat.name << ' ' << describe(o);
            }
            // Proxy slots are published in event order on the parallel
            // commit path, so even the proxy history is serial's.
            if (workers == 0) {
              serial_history = proxy.solve.residual_history;
            } else {
              EXPECT_EQ(proxy.solve.residual_history, serial_history)
                  << mat.name << ' ' << describe(o);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 72);
  EXPECT_EQ(differences, 0) << mat.name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProxyIdentity,
    ::testing::Values("trefethen_2000", "fv40_0.05", "fv40_0.3", "fv40_0.85",
                      "fv140_0.05", "fv140_0.3", "fv140_0.85"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      for (char& c : s) {
        if (c == '.') c = 'p';
      }
      return s;
    });

TEST(ResidualProxy, OneIterationSolveStopsAtBoundaryOne) {
  // Jacobi solves a diagonal system in one global iteration, while the
  // proxy at boundary 1 still reads the starting iterate's residual.
  Coo coo(1000, 1000);
  for (index_t i = 0; i < 1000; ++i) {
    coo.add(i, i, 2.0 + static_cast<value_t>(i % 7));
  }
  const Csr a = Csr::from_coo(coo);
  const Vector b(1000, 1.0);
  for (const index_t k : {1, 5}) {
    BlockAsyncOptions o;
    o.local_iters = k;
    o.solve.tol = 1e-14;
    const BlockAsyncResult proxy = block_async_solve(a, b, o);
    o.exact_history = true;
    const BlockAsyncResult exact = block_async_solve(a, b, o);
    EXPECT_EQ(exact.solve.iterations, 1) << "async-(" << k << ")";
    EXPECT_EQ(proxy.solve.iterations, exact.solve.iterations)
        << "async-(" << k << ")";
    EXPECT_EQ(proxy.solve.x, exact.solve.x) << "async-(" << k << ")";
  }
}

/// Forwards to a real kernel but hides the residual slot from it, like
/// any kernel that does not form the block residual.
class SlotlessKernel final : public BlockKernel {
 public:
  explicit SlotlessKernel(const BlockKernel& inner) : inner_(inner) {}
  [[nodiscard]] index_t num_blocks() const override {
    return inner_.num_blocks();
  }
  [[nodiscard]] index_t num_rows() const override { return inner_.num_rows(); }
  [[nodiscard]] std::span<const index_t> halo(index_t block) const override {
    return inner_.halo(block);
  }
  [[nodiscard]] std::pair<index_t, index_t> rows(
      index_t block) const override {
    return inner_.rows(block);
  }
  void update(index_t block, std::span<const value_t> halo_values,
              std::span<value_t> x, const ExecContext& ctx) const override {
    ExecContext hidden = ctx;
    hidden.residual_sq = nullptr;
    inner_.update(block, halo_values, x, hidden);
  }

 private:
  const BlockKernel& inner_;
};

struct Counted {
  ExecutorResult result;
  index_t exact_calls = 0;
};

Counted run_counted(const BlockKernel& kernel, const Csr& a, const Vector& b) {
  ExecutorOptions o;
  o.stopping.tol = 1e-10;
  o.rhs_norm = norm2(b);
  Counted c;
  Vector x(b.size(), 0.0);
  c.result = AsyncExecutor(kernel, o).run(x, [&](const Vector& v) {
    ++c.exact_calls;
    return relative_residual(a, b, v);
  });
  return c;
}

TEST(ResidualProxy, ExactResidualOnlyNearTol) {
  const Csr a = trefethen(2000);
  const Vector b(2000, 1.0);
  const auto kernel = backend::build_kernel(
      "scalar", a, b, RowPartition::uniform(a.rows(), 448), {1});
  const Counted c = run_counted(*kernel, a, b);
  ASSERT_EQ(c.result.status, SolverStatus::kConverged);
  EXPECT_LT(3 * c.exact_calls, c.result.global_iterations)
      << c.exact_calls << " exact calls in " << c.result.global_iterations
      << " iterations";
}

TEST(ResidualProxy, UnwrittenSlotKeepsEveryBoundaryExact) {
  const Csr a = trefethen(2000);
  const Vector b(2000, 1.0);
  const auto kernel = backend::build_kernel(
      "scalar", a, b, RowPartition::uniform(a.rows(), 448), {1});
  const SlotlessKernel slotless(*kernel);
  const Counted c = run_counted(slotless, a, b);
  ASSERT_EQ(c.result.status, SolverStatus::kConverged);
  // One call for r0, then one per boundary.
  EXPECT_EQ(c.exact_calls, c.result.global_iterations + 1);
}

}  // namespace
}  // namespace bars::gpusim
