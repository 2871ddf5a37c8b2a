#include "core/thread_async.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "backend/registry.hpp"
#include "common/check.hpp"
#include "common/thread.hpp"
#include "common/verify_hooks.hpp"
#include "sparse/partition.hpp"
#include "sparse/vector_ops.hpp"
#include "telemetry/metrics.hpp"

namespace bars {

namespace {

/// Shared iterate with relaxed atomic element access.
class AtomicVector {
 public:
  explicit AtomicVector(const Vector& init)
      : n_(init.size()), data_(std::make_unique<std::atomic<value_t>[]>(n_)) {
    for (std::size_t i = 0; i < n_; ++i) {
      data_[i].store(init[i], std::memory_order_relaxed);
    }
  }
  [[nodiscard]] value_t load(std::size_t i) const {
    BARS_DCHECK(i < n_) << "AtomicVector load " << i << " of " << n_;
    return data_[i].load(std::memory_order_relaxed);
  }
  void store(std::size_t i, value_t v) {
    BARS_DCHECK(i < n_) << "AtomicVector store " << i << " of " << n_;
    data_[i].store(v, std::memory_order_relaxed);
  }
  void snapshot_into(Vector& out) const {
    out.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) out[i] = load(i);
  }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<value_t>[]> data_;
};

}  // namespace

ThreadAsyncResult thread_async_solve(const Csr& a, const Vector& b,
                                     const ThreadAsyncOptions& opts,
                                     const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("thread_async_solve: dimension mismatch");
  }
  const RowPartition part = RowPartition::uniform(a.rows(), opts.block_size);
  const std::unique_ptr<backend::BlockSweepKernel> kernel_ptr =
      backend::build_kernel(opts.backend, a, b, part, {opts.local_iters},
                            opts.solve.telemetry.metrics);
  const backend::BlockSweepKernel& kernel = *kernel_ptr;
  const index_t q = part.num_blocks();

  index_t threads = opts.num_threads;
  if (threads <= 0) {
    threads = static_cast<index_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  // At least one worker, so the monitor has a pass counter to poll even
  // on an empty system.
  threads = std::max<index_t>(1, std::min(threads, q));

  ThreadAsyncResult out;
  out.block_executions.assign(static_cast<std::size_t>(q), 0);
  SolveResult& sr = out.solve;

  // Observability. All callbacks fire from this (monitor) thread only —
  // workers never touch the observer, so the callback-serial contract
  // holds even though the solve itself is multi-threaded. The phase
  // timers are real wall clock (TimeDomain::kWall).
  SolveRecorder rec(sr, opts.solve, "thread-async");
  telemetry::SolveProbe& probe = rec.probe();
  telemetry::MetricsRegistry* const metrics = opts.solve.telemetry.metrics;
  probe.start(a.rows(), a.nnz(), q, threads, telemetry::TimeDomain::kWall);

  AtomicVector x(x0 ? *x0 : Vector(b.size(), 0.0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> executions{0};
  // Per-block execution counts; the monitor reads them concurrently, so
  // they must be atomic.
  std::vector<std::atomic<index_t>> exec_counts(
      static_cast<std::size_t>(q));
  for (auto& c : exec_counts) c.store(0, std::memory_order_relaxed);
  // Completed stride passes per worker. A worker touches each of its
  // blocks once per pass, so min over workers bounds min over blocks
  // from below — the monitor polls `threads` atomics instead of q.
  std::vector<std::atomic<index_t>> pass_counts(
      static_cast<std::size_t>(threads));
  for (auto& c : pass_counts) c.store(0, std::memory_order_relaxed);
  // Global iterations the monitor has sampled. A worker starts a new
  // pass only while it is at most one pass ahead of the last sample, so
  // sample k sees every block executed k or k + 1 times. Without this
  // bound the workers outran the monitor by a scheduler-dependent number
  // of passes (thousands, when the monitor thread was descheduled), and
  // `iterations` counted monitor wake-ups rather than global iterations.
  std::atomic<index_t> sampled{0};
  // Passes completed by all workers together; the monitor waits on it
  // for the next global iteration to complete.
  std::atomic<index_t> passes_done{0};

  const auto worker = [&](index_t tid) {
    Vector halo_vals;
    Vector xs(b.size());
    while (!stop.load(std::memory_order_relaxed)) {
      for (index_t blk = tid; blk < q; blk += threads) {
        BARS_VERIFY_YIELD("thread_async.block");
        const auto halo = kernel.halo(blk);
        halo_vals.resize(halo.size());
        for (std::size_t i = 0; i < halo.size(); ++i) {
          halo_vals[i] = x.load(static_cast<std::size_t>(halo[i]));
        }
        const auto [lo, hi] = kernel.rows(blk);
        // Stage the block's own rows into a scratch full-length vector,
        // run the kernel, and publish the result element-wise.
        for (index_t i = lo; i < hi; ++i) {
          xs[i] = x.load(static_cast<std::size_t>(i));
        }
        gpusim::ExecContext ctx;
        kernel.update(blk, halo_vals, xs, ctx);
        for (index_t i = lo; i < hi; ++i) {
          x.store(static_cast<std::size_t>(i), xs[i]);
        }
        exec_counts[blk].fetch_add(1, std::memory_order_relaxed);
        executions.fetch_add(1, std::memory_order_relaxed);
        if (stop.load(std::memory_order_relaxed)) return;
      }
      const index_t done =
          pass_counts[tid].fetch_add(1, std::memory_order_relaxed) + 1;
      passes_done.fetch_add(1, std::memory_order_release);
      passes_done.notify_one();
      // Give other workers a chance on oversubscribed machines so that
      // no block starves (Chazan-Miranker condition 1).
      BARS_VERIFY_YIELD("thread_async.pass");
      std::this_thread::yield();
      for (index_t seen = sampled.load(std::memory_order_acquire);
           done > seen + 1 && !stop.load(std::memory_order_relaxed);
           seen = sampled.load(std::memory_order_acquire)) {
        if (common::verify::controlled()) {
          BARS_VERIFY_YIELD("thread_async.lead");
        } else {
          sampled.wait(seen, std::memory_order_acquire);
        }
      }
    }
  };

  const value_t nb = norm2(b);
  const value_t den = nb > 0.0 ? nb : 1.0;
  // Monitor scratch, allocated once: the loop below must not heap-
  // allocate per check (it runs once per global iteration).
  Vector snap(b.size());
  Vector rbuf(b.size());
  const auto residual_of = [&](const Vector& xv) {
    a.residual(b, xv, rbuf);
    return norm2(rbuf) / den;
  };

  // Records boundary sr.iterations on the snapshot's residual, stamped
  // with the wall clock, and returns the rule's verdict there.
  const auto boundary = [&](value_t rel) {
    rec.record(sr.iterations, rel,
               probe.active() ? probe.elapsed_seconds() : 0.0);
    return rec.rule().verdict(sr.iterations, rel);
  };

  x.snapshot_into(snap);
  value_t rel = residual_of(snap);
  std::optional<SolverStatus> verdict = boundary(rel);
  // A solve that stops at boundary 0 starts no worker.
  if (verdict) {
    sr.x = std::move(snap);
    rec.finish(*verdict, rel);
    return out;
  }

  std::vector<common::Thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (index_t t = 0; t < threads; ++t) {
    pool.emplace_back([&worker, t] { worker(t); });
  }
  if (metrics != nullptr) {
    metrics->gauge("thread_async_setup_seconds").set(probe.elapsed_seconds());
  }
  // A "global iteration" completes when *every* block has executed at
  // least once more — the paper's counting convention, robust against
  // worker starvation on oversubscribed machines. Polled as the min
  // over per-worker pass counters (O(threads), not O(q)): a completed
  // pass means every block of that worker's stride set ran once more.
  const auto min_generation = [&]() {
    index_t mn = pass_counts[0].load(std::memory_order_relaxed);
    for (index_t t = 1; t < threads; ++t) {
      mn = std::min(mn, pass_counts[t].load(std::memory_order_relaxed));
    }
    return mn;
  };
  while (!verdict) {
    const index_t seen = passes_done.load(std::memory_order_acquire);
    if (min_generation() <= sr.iterations) {
      if (common::verify::controlled()) {
        // Under the schedule controller a blocking wait would keep the
        // serial token and livelock the workers; hand it over instead.
        BARS_VERIFY_YIELD("thread_async.monitor");
      } else {
        passes_done.wait(seen, std::memory_order_acquire);
      }
      continue;
    }
    ++sr.iterations;
    x.snapshot_into(snap);
    sampled.store(sr.iterations, std::memory_order_release);
    sampled.notify_all();
    rel = residual_of(snap);
    verdict = boundary(rel);
  }
  stop.store(true, std::memory_order_relaxed);
  // Move `sampled` past any value a waiting worker holds, so its wait
  // returns and it sees `stop`.
  sampled.fetch_add(1, std::memory_order_release);
  sampled.notify_all();
  for (auto& t : pool) t.join();
  if (metrics != nullptr) {
    metrics->gauge("thread_async_solve_seconds").set(probe.elapsed_seconds());
  }

  if (verdict != SolverStatus::kMaxIterations) {
    // The verdict was rendered on `snap`; returning that very iterate
    // keeps x and final_residual consistent and skips a recompute.
    sr.x = std::move(snap);
  } else {
    // Iteration limit: workers kept running until the join, so the
    // verdict is taken again on the freshest iterate.
    x.snapshot_into(sr.x);
    rel = residual_of(sr.x);
    verdict = rec.rule().verdict(sr.iterations, rel);
  }
  out.block_executions.resize(static_cast<std::size_t>(q));
  for (index_t blk = 0; blk < q; ++blk) {
    out.block_executions[blk] =
        exec_counts[blk].load(std::memory_order_relaxed);
  }
  out.total_block_executions = static_cast<index_t>(
      executions.load(std::memory_order_relaxed));
  if (metrics != nullptr) {
    // Per-worker progress spread: how evenly the chaotic schedule
    // distributed stride passes (the thread-pool analogue of the
    // paper's block-update-count spread).
    constexpr std::array<value_t, 10> kPassBounds = {
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0};
    telemetry::Histogram& passes =
        metrics->histogram("thread_async_worker_passes", kPassBounds);
    for (index_t t = 0; t < threads; ++t) {
      passes.record(static_cast<value_t>(
          pass_counts[t].load(std::memory_order_relaxed)));
    }
    metrics->counter("thread_async_block_executions")
        .inc(static_cast<std::uint64_t>(out.total_block_executions));
    metrics->gauge("thread_async_total_seconds").set(probe.elapsed_seconds());
  }
  rec.finish(*verdict, rel, out.total_block_executions);
  return out;
}

}  // namespace bars
