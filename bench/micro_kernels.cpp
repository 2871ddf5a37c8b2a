/// google-benchmark micro benchmarks for the computational kernels:
/// SpMV, residual, block update, full async global iteration. These
/// measure *this machine's* wall time (not virtual time) and exist to
/// catch performance regressions in the library itself.

#include <benchmark/benchmark.h>

#include "backend/block_jacobi_kernel.hpp"
#include "core/solver_types.hpp"
#include "gpusim/async_executor.hpp"
#include "matrices/generators.hpp"
#include "sparse/partition.hpp"
#include "sparse/vector_ops.hpp"

namespace {

using namespace bars;

void BM_Spmv(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  const Csr a = fv_like(m, 0.5);
  const Vector x(static_cast<std::size_t>(a.rows()), 1.0);
  Vector y(x.size());
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv)->Arg(32)->Arg(64)->Arg(98);

void BM_Residual(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  const Csr a = fv_like(m, 0.5);
  const Vector x(static_cast<std::size_t>(a.rows()), 1.0);
  const Vector b(x.size(), 2.0);
  Vector r(x.size());
  for (auto _ : state) {
    a.residual(b, x, r);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Residual)->Arg(64)->Arg(98);

void BM_BlockUpdate(benchmark::State& state) {
  const auto local_iters = static_cast<index_t>(state.range(0));
  const Csr a = fv_like(64, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const BlockJacobiKernel kernel(a, b, RowPartition::uniform(a.rows(), 448),
                                 local_iters);
  Vector x(b.size(), 0.0);
  const auto halo = kernel.halo(1);
  Vector hv(halo.size(), 0.0);
  gpusim::ExecContext ctx;
  for (auto _ : state) {
    kernel.update(1, hv, x, ctx);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BlockUpdate)->Arg(1)->Arg(5)->Arg(9);

void BM_AsyncGlobalIteration(benchmark::State& state) {
  const Csr a = fv_like(64, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const BlockJacobiKernel kernel(a, b, RowPartition::uniform(a.rows(), 256),
                                 5);
  for (auto _ : state) {
    gpusim::ExecutorOptions o;
    o.stopping.max_iters = 10;
    o.stopping.tol = 0.0;
    gpusim::AsyncExecutor ex(kernel, o);
    Vector x(b.size(), 0.0);
    const auto r =
        ex.run(x, [&](const Vector& v) { return relative_residual(a, b, v); });
    benchmark::DoNotOptimize(r.global_iterations);
  }
}
BENCHMARK(BM_AsyncGlobalIteration)->Unit(benchmark::kMillisecond);

void BM_Dot(benchmark::State& state) {
  const Vector x(static_cast<std::size_t>(state.range(0)), 1.5);
  const Vector y(x.size(), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dot(x, y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Dot)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

BENCHMARK_MAIN();
