/// Kernel factory tests: name resolution, the degradation policy
/// (unavailable SIMD kernel / unsupported config -> scalar, counted on
/// the caller's metrics), and the cross-backend kernel guarantees the
/// solvers rely on (parallel-commit bit-identity, scalar-vs-simd
/// elementwise agreement).

#include "backend/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/block_jacobi_kernel.hpp"
#include "backend/simd_kernel.hpp"
#include "core/block_async.hpp"
#include "matrices/generators.hpp"
#include "matrices/paper_suite.hpp"
#include "sparse/coo.hpp"
#include "sparse/partition.hpp"
#include "stats/rng.hpp"
#include "telemetry/metrics.hpp"

namespace bars::backend {
namespace {

/// Counter value as an integer (counters only ever increment by 1).
long long count(telemetry::MetricsRegistry& m, const std::string& name) {
  return static_cast<long long>(m.counter(name).value());
}

/// The backends that can build a kernel on this host.
std::vector<std::string> runnable_backends() {
  std::vector<std::string> names = {"scalar"};
  if (simd_available()) names.emplace_back("simd");
  return names;
}

/// Diagonally dominant matrix with a seeded random pattern: up to five
/// off-diagonal entries per row, plus couplings to columns 0 and n - 1.
Csr random_pattern(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Coo c(n, n);
  for (index_t i = 0; i < n; ++i) {
    value_t off = 0.0;
    const auto add = [&](index_t j) {
      if (j == i) return;
      const value_t v = -rng.uniform(0.1, 1.0);
      c.add(i, j, v);
      off -= v;
    };
    const index_t count = rng.uniform_int(0, 5);
    for (index_t t = 0; t < count; ++t) add(rng.uniform_int(0, n - 1));
    if (i % 5 == 2) add(0);
    if (i % 7 == 3) add(n - 1);
    c.add(i, i, off + 1.0);
  }
  return Csr::from_coo(c);
}

// ------------------------------------------------------------ registry

TEST(BackendRegistry, NamesAreScalarThenSimd) {
  EXPECT_EQ(backend_names(), (std::vector<std::string>{"scalar", "simd"}));
}

TEST(BackendRegistry, UnknownNameThrowsListingValidOnes) {
  for (const bool simd : {false, true}) {
    try {
      (void)resolve_backend("cuda", simd);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("cuda"), std::string::npos);
      EXPECT_NE(msg.find("scalar"), std::string::npos);
      EXPECT_NE(msg.find("simd"), std::string::npos);
      EXPECT_NE(msg.find("auto"), std::string::npos);
    }
  }
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  EXPECT_THROW((void)build_kernel("cuda", a, b,
                                  RowPartition::uniform(a.rows(), 8), {}),
               std::invalid_argument);
}

TEST(BackendRegistry, AutoResolvesToAnAvailableProvider) {
  for (const bool simd : {false, true}) {
    EXPECT_EQ(resolve_backend("scalar", simd), BackendKind::kScalar);
    // An explicit "simd" is tried even without AVX2: the SIMD kernel's
    // constructor then throws backend_unsupported and build_kernel
    // counts the fallback.
    EXPECT_EQ(resolve_backend("simd", simd), BackendKind::kSimd);
    const BackendKind best = simd ? BackendKind::kSimd : BackendKind::kScalar;
    EXPECT_EQ(resolve_backend("auto", simd), best);
    // "" is the same selection alias as "auto".
    EXPECT_EQ(resolve_backend("", simd), best);
  }
}

TEST(BackendRegistry, AutoCountsNoFallback) {
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  for (const std::string name : {"auto", ""}) {
    telemetry::MetricsRegistry m;
    const auto kernel = build_kernel(
        name, a, b, RowPartition::uniform(a.rows(), 8), {}, &m);
    const std::string want = simd_available() ? "simd" : "scalar";
    EXPECT_EQ(kernel->backend_name(), want);
    EXPECT_EQ(count(m, "backend_used_" + want), 1);
    EXPECT_EQ(count(m, "backend_fallbacks"), 0);
  }
}

// -------------------------------------------------- degradation policy

TEST(BackendRegistry, UnsupportedConfigDegradesToScalar) {
  // "simd" cannot express Gauss-Seidel sweeps or overlap; whether AVX2
  // is present or not, build_kernel must degrade to scalar and count a
  // fallback — never throw backend_unsupported at the caller. "auto"
  // degrades the same way when it picks "simd".
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  KernelConfig gs;
  gs.local_iters = 2;
  gs.sweep = LocalSweep::kGaussSeidel;
  KernelConfig overlap;
  overlap.overlap = 2;
  for (const KernelConfig& config : {gs, overlap}) {
    for (const std::string name : {"simd", "auto"}) {
      telemetry::MetricsRegistry m;
      const auto kernel = build_kernel(
          name, a, b, RowPartition::uniform(a.rows(), 8), config, &m);
      ASSERT_NE(kernel, nullptr);
      EXPECT_EQ(kernel->backend_name(), "scalar");
      EXPECT_EQ(kernel->local_iters(), config.local_iters);
      EXPECT_EQ(kernel->overlap(), config.overlap);
      const long long fell_back =
          (name == "simd" || simd_available()) ? 1 : 0;
      EXPECT_EQ(count(m, "backend_fallbacks"), fell_back) << name;
      EXPECT_EQ(count(m, "backend_used_scalar"), 1) << name;
      EXPECT_EQ(count(m, "backend_used_simd"), 0) << name;
    }
  }
}

TEST(BackendRegistry, SimdWithoutAvx2DegradesToScalar) {
  if (simd_available()) {
    GTEST_SKIP() << "AVX2+FMA available: no degradation to observe";
  }
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  telemetry::MetricsRegistry m;
  const auto kernel = build_kernel(
      "simd", a, b, RowPartition::uniform(a.rows(), 8), {}, &m);
  EXPECT_EQ(kernel->backend_name(), "scalar");
  EXPECT_EQ(count(m, "backend_used_scalar"), 1);
  EXPECT_EQ(count(m, "backend_fallbacks"), 1);
}

TEST(BackendRegistry, ScalarRequestNeverFallsBack) {
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  KernelConfig gs;
  gs.sweep = LocalSweep::kGaussSeidel;
  gs.overlap = 2;
  for (const KernelConfig& config : {KernelConfig{}, gs}) {
    telemetry::MetricsRegistry m;
    const auto kernel = build_kernel(
        "scalar", a, b, RowPartition::uniform(a.rows(), 8), config, &m);
    EXPECT_EQ(kernel->backend_name(), "scalar");
    EXPECT_EQ(count(m, "backend_used_scalar"), 1);
    EXPECT_EQ(count(m, "backend_fallbacks"), 0);
  }
}

TEST(BackendRegistry, InputErrorsPropagateNotDegraded) {
  // A malformed *input* (zero diagonal) is the caller's bug on every
  // backend: it must surface as std::invalid_argument, not silently
  // retry on scalar (which would fail identically anyway).
  const Csr bad(2, 2, {0, 1, 2}, {1, 0}, {1.0, 1.0});
  const Vector b(2, 1.0);
  for (const std::string& name : backend_names()) {
    EXPECT_THROW((void)build_kernel(name, bad, b,
                                    RowPartition::uniform(bad.rows(), 2), {}),
                 std::invalid_argument)
        << name;
  }
}

// ------------------------------------------- cross-backend kernel laws

TEST(BackendKernel, EveryAvailableBackendSolves) {
  const Csr a = fv_like(10, 0.6);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.01 * double(i);
  BlockAsyncOptions o;
  o.block_size = 25;
  o.local_iters = 3;
  o.solve.max_iters = 3000;
  o.solve.tol = 1e-11;
  for (const std::string& name : runnable_backends()) {
    const auto kernel = build_kernel(
        name, a, b, RowPartition::uniform(a.rows(), o.block_size),
        {o.local_iters});
    EXPECT_EQ(kernel->backend_name(), name);
    EXPECT_EQ(kernel->local_iters(), o.local_iters);
    EXPECT_EQ(kernel->overlap(), 0);
    const BlockAsyncResult r =
        block_async_solve_with_kernel(a, b, *kernel, o);
    EXPECT_TRUE(r.solve.ok()) << name;
    EXPECT_LE(relative_residual(a, b, r.solve.x), 1e-11) << name;
  }
}

TEST(BackendKernel, ParallelCommitBitIdenticalPerBackend) {
  // Re-prove the parallel-commit contract *through the factory*: every
  // kernel that declares itself parallel_commit_safe() must produce
  // bitwise-identical histories with and without the worker pool.
  const Csr a = trefethen(640);
  const Vector b(640, 1.0);
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 2;
  o.solve.max_iters = 30;
  o.solve.tol = 0.0;
  o.solve.record_history = true;
  for (const std::string& name : runnable_backends()) {
    for (const LocalSweep sweep : {LocalSweep::kJacobi,
                                   LocalSweep::kGaussSeidel}) {
      for (const index_t overlap : {0, 2}) {
        KernelConfig config{o.local_iters, sweep};
        config.overlap = overlap;
        const auto kernel = build_kernel(
            name, a, b, RowPartition::uniform(a.rows(), o.block_size),
            config);
        // Overlapping subdomains read neighbor rows at update time.
        EXPECT_EQ(kernel->parallel_commit_safe(), overlap == 0) << name;
        if (!kernel->parallel_commit_safe()) continue;
        o.local_sweep = sweep;
        o.overlap = overlap;
        o.num_workers = 0;
        const BlockAsyncResult serial =
            block_async_solve_with_kernel(a, b, *kernel, o);
        o.num_workers = 4;
        const BlockAsyncResult parallel =
            block_async_solve_with_kernel(a, b, *kernel, o);
        EXPECT_EQ(serial.solve.x, parallel.solve.x) << name;  // bitwise
        EXPECT_EQ(serial.solve.residual_history,
                  parallel.solve.residual_history)
            << name;
        EXPECT_EQ(serial.block_executions, parallel.block_executions) << name;
      }
    }
  }
}

TEST(BackendKernel, ScalarAndSimdAgreeWithinDocumentedTolerance) {
  if (!simd_available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this machine/build";
  }
  // docs/BACKENDS.md: identical accumulation order, FMA contraction is
  // the only rounding difference -> elementwise relative agreement to
  // 1e-12 on the paper matrices (far tighter in practice).
  const auto expect_agree = [](const Csr& a, const BlockAsyncOptions& o,
                               bool require_ok) {
    const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
    const RowPartition part = RowPartition::uniform(a.rows(), o.block_size);
    const auto ks = build_kernel("scalar", a, b, part, {o.local_iters});
    const auto kv = build_kernel("simd", a, b, part, {o.local_iters});
    const BlockAsyncResult rs = block_async_solve_with_kernel(a, b, *ks, o);
    const BlockAsyncResult rv = block_async_solve_with_kernel(a, b, *kv, o);
    if (require_ok) {
      ASSERT_TRUE(rs.solve.ok());
      ASSERT_TRUE(rv.solve.ok());
    }
    ASSERT_EQ(rs.solve.x.size(), rv.solve.x.size());
    for (std::size_t i = 0; i < rs.solve.x.size(); ++i) {
      const value_t scale = std::max(std::abs(rs.solve.x[i]), value_t(1));
      EXPECT_NEAR(rs.solve.x[i], rv.solve.x[i], 1e-12 * scale) << "i=" << i;
    }
  };
  BlockAsyncOptions o;
  o.block_size = 64;
  o.local_iters = 3;
  o.solve.max_iters = 2000;
  o.solve.tol = 1e-10;
  expect_agree(trefethen(500), o, true);
  expect_agree(fv_like(22, 0.4), o, true);
  // The paper matrices on a 100-iteration async-(5) budget at block
  // 256. fv3 (rho = 0.9993) is far from converged after 100
  // iterations, so the iterates are compared whatever the status.
  o.block_size = 256;
  o.local_iters = 5;
  o.solve.max_iters = 100;
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  o.concurrent_slots = 64;
  for (const PaperMatrix which :
       {PaperMatrix::kChem97ZtZ, PaperMatrix::kFv3,
        PaperMatrix::kTrefethen2000, PaperMatrix::kTrefethen20000}) {
    const TestProblem p = make_paper_problem(which);
    SCOPED_TRACE(p.name);
    expect_agree(p.matrix, o, false);
  }
}

TEST(BackendKernel, SimdHaloAndSweepMatchScalarOnRandomPatterns) {
  if (!simd_available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this machine/build";
  }
  // Sizes around the 64-column words of the halo bitmap; block sizes
  // giving one-row blocks, a ragged last block and partial lane groups.
  for (const index_t n : {1, 2, 63, 64, 65, 130, 203}) {
    const Csr a = random_pattern(n, 2000 + static_cast<std::uint64_t>(n));
    Vector b(static_cast<std::size_t>(n));
    Vector x0(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      b[i] = 1.0 + 0.01 * static_cast<value_t>(i);
      x0[i] = std::sin(static_cast<value_t>(i));
    }
    for (const index_t bs : {1, 7, 64}) {
      const RowPartition part = RowPartition::uniform(n, bs);
      const KernelConfig config{/*local_iters=*/3};
      const BlockJacobiKernel ks(a, b, part, config.local_iters);
      const SimdBlockSweepKernel kv(a, b, part, config);
      for (index_t blk = 0; blk < ks.num_blocks(); ++blk) {
        const auto [lo, hi] = ks.rows(blk);
        std::vector<index_t> ref;
        for (index_t i = lo; i < hi; ++i) {
          for (index_t j : a.row_cols(i)) {
            if (j < lo || j >= hi) ref.push_back(j);
          }
        }
        std::sort(ref.begin(), ref.end());
        ref.erase(std::unique(ref.begin(), ref.end()), ref.end());
        const auto hs = ks.halo(blk);
        const auto hv = kv.halo(blk);
        ASSERT_EQ(std::vector<index_t>(hs.begin(), hs.end()), ref)
            << "n=" << n << " bs=" << bs << " block=" << blk;
        ASSERT_EQ(std::vector<index_t>(hv.begin(), hv.end()), ref)
            << "n=" << n << " bs=" << bs << " block=" << blk;
        // Three sweeps from the same fresh snapshot agree row by row.
        Vector snap(ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) snap[i] = x0[ref[i]];
        Vector xs = x0;
        Vector xv = x0;
        ks.update(blk, snap, xs, {});
        kv.update(blk, snap, xv, {});
        for (index_t i = lo; i < hi; ++i) {
          EXPECT_NEAR(xs[i], xv[i], 1e-12 * std::max(1.0, std::abs(xs[i])))
              << "n=" << n << " bs=" << bs << " row=" << i;
        }
      }
      BlockAsyncOptions o;
      o.block_size = bs;
      o.local_iters = config.local_iters;
      o.solve.max_iters = 500;
      o.solve.tol = 1e-10;
      BlockJacobiKernel ks_solve(a, b, part, config.local_iters);
      SimdBlockSweepKernel kv_solve(a, b, part, config);
      const BlockAsyncResult rs = block_async_solve_with_kernel(a, b, ks_solve, o);
      const BlockAsyncResult rv = block_async_solve_with_kernel(a, b, kv_solve, o);
      ASSERT_TRUE(rs.solve.ok()) << "n=" << n << " bs=" << bs;
      ASSERT_TRUE(rv.solve.ok()) << "n=" << n << " bs=" << bs;
      for (std::size_t i = 0; i < rs.solve.x.size(); ++i) {
        EXPECT_NEAR(rs.solve.x[i], rv.solve.x[i],
                    1e-10 * std::max(1.0, std::abs(rs.solve.x[i])))
            << "n=" << n << " bs=" << bs << " i=" << i;
      }
    }
  }
}

TEST(BackendKernel, ZeroDiagonalThrowsOnEveryBackend) {
  const Csr good = random_pattern(130, 7);
  std::vector<value_t> vals(good.values().begin(), good.values().end());
  for (index_t k = good.row_ptr()[77]; k < good.row_ptr()[78]; ++k) {
    if (good.col_idx()[k] == 77) vals[static_cast<std::size_t>(k)] = 0.0;
  }
  const Csr a(good.rows(), good.cols(),
              std::vector<index_t>(good.row_ptr().begin(), good.row_ptr().end()),
              std::vector<index_t>(good.col_idx().begin(), good.col_idx().end()),
              std::move(vals));
  const Vector b(130, 1.0);
  for (const std::string& name : runnable_backends()) {
    EXPECT_THROW((void)build_kernel(name, a, b, RowPartition::uniform(130, 64),
                                    {/*local_iters=*/1}),
                 std::invalid_argument)
        << name;
  }
}

TEST(BackendKernel, SimdRejectsWhatItCannotExpress) {
  if (!simd_available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this machine/build";
  }
  const Csr a = fv_like(6, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const RowPartition part = RowPartition::uniform(a.rows(), 8);
  KernelConfig gs;
  gs.sweep = LocalSweep::kGaussSeidel;
  EXPECT_THROW(SimdBlockSweepKernel(a, b, part, gs), backend_unsupported);
  KernelConfig overlap;
  overlap.overlap = 2;
  EXPECT_THROW(SimdBlockSweepKernel(a, b, part, overlap),
               backend_unsupported);
  KernelConfig bad_iters;
  bad_iters.local_iters = 0;
  EXPECT_THROW(SimdBlockSweepKernel(a, b, part, bad_iters),
               std::invalid_argument);
}

TEST(BackendKernel, RhsAndPerBlockItersRoundTripPerBackend) {
  const Csr a = fv_like(8, 0.5);
  const Vector b1(static_cast<std::size_t>(a.rows()), 1.0);
  const Vector b2(static_cast<std::size_t>(a.rows()), 2.0);
  for (const std::string& name : runnable_backends()) {
    const auto kernel = build_kernel(
        name, a, b1, RowPartition::uniform(a.rows(), 16), {/*local_iters=*/3});
    EXPECT_EQ(&kernel->rhs(), &b1) << name;
    kernel->set_rhs(b2);
    EXPECT_EQ(&kernel->rhs(), &b2) << name;
    EXPECT_THROW(kernel->set_rhs(Vector(3, 0.0)), std::invalid_argument);

    // Adaptive async-(k): per-block sweep counts override the uniform k.
    std::vector<index_t> per_block(
        static_cast<std::size_t>(kernel->num_blocks()));
    for (std::size_t i = 0; i < per_block.size(); ++i) {
      per_block[i] = 1 + static_cast<index_t>(i % 3);
    }
    kernel->set_per_block_iters(per_block);
    for (index_t blk = 0; blk < kernel->num_blocks(); ++blk) {
      EXPECT_EQ(kernel->block_local_iters(blk),
                per_block[static_cast<std::size_t>(blk)])
          << name;
    }
    EXPECT_THROW(kernel->set_per_block_iters({1}), std::invalid_argument);
  }
}

}  // namespace
}  // namespace bars::backend
