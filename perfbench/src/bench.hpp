#pragma once

// Shared declarations of the BARS benchmark program: run arguments,
// generated inputs, output checks, sample statistics, the in-memory span
// tracer, and the metric sink that becomes the final JSON line.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using bars::Csr;
using bars::index_t;
using bars::Vector;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Tolerance every workload solves to (relative l2 residual).
inline constexpr double kTol = 1e-10;
/// Solver threads a workload may run: nproc (4) minus the caller's core.
inline constexpr index_t kSolverThreads = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for input files and traces
};

// ---------------------------------------------------------------------
// Inputs (inputs.cpp)

/// One operation's input: a matrix and one of its right-hand sides.
struct Pair {
  std::size_t matrix = 0;
  std::size_t rhs = 0;
};

struct Inputs {
  std::vector<std::string> names;   ///< matrix labels
  std::vector<Csr> matrices;        ///< as generated (the reference copy)
  std::vector<std::string> files;   ///< MatrixMarket copies on disk
  std::vector<std::vector<Vector>> rhs;  ///< rhs[matrix][k]
  std::vector<Pair> round;          ///< one round of operations, in order
  double generate_s = 0.0;          ///< generator time (matrices + rhs)
};

/// Builds the named workload's inputs from `seed` and writes each matrix
/// as a MatrixMarket file under `dir`.
[[nodiscard]] Inputs make_inputs(const std::string& workload,
                                 std::uint64_t seed, const std::string& dir);

/// Exact equality of two CSR matrices (dimensions, pattern, value bits).
[[nodiscard]] bool same_matrix(const Csr& a, const Csr& b);

/// Exact equality of two iterates (bitwise).
[[nodiscard]] bool same_bits(const Vector& a, const Vector& b);

/// ||b - A x|| / ||b|| from the benchmark's own CSR product, independent
/// of the library's residual routine.
[[nodiscard]] double own_relative_residual(const Csr& a, const Vector& b,
                                           const Vector& x);

/// The residual check every solve must pass: `tol` plus 0.1 % for the
/// rounding difference between two summation orders.
[[nodiscard]] inline bool residual_ok(double r) { return r <= kTol * 1.001; }

// ---------------------------------------------------------------------
// Statistics

[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
/// Third minus first quartile.
[[nodiscard]] double iqr(std::vector<double> v);

/// Process CPU seconds (user + system, all threads) from getrusage.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------
// Tracing (trace.cpp)

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: root
  std::int64_t op = -1;      ///< operation id, -1 outside operations
  std::int64_t count = 1;    ///< calls folded into this span (aggregates)
  bool computed = false;     ///< duration derived, not clocked
};

/// In-memory span recorder. A disabled tracer records nothing, so the
/// timed phases can share code with the traced ones.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const { return seconds_since(t0_); }

  /// Records a span and returns its id (-1 when disabled).
  std::int64_t add(Span s);
  /// Sets the end of span `id` to now.
  void close(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations of the spans named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Self time: duration minus the durations of the span's children.
  [[nodiscard]] std::vector<double> self_times(std::string_view name) const;

  /// One JSON object per span and line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a call into one layer as a span of `tracer`.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::int64_t parent = -1,
        std::int64_t op = -1);
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { close(); }
  /// Ends the span now; returns its id.
  std::int64_t close();
  /// The id children name as their parent.
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_ = -1;
  bool open_ = true;
};

/// BlockSweepKernel decorator that clocks every update() call and
/// forwards everything else to the wrapped kernel.
class TimedKernel final : public bars::backend::BlockSweepKernel {
 public:
  explicit TimedKernel(bars::backend::BlockSweepKernel& inner)
      : inner_(inner) {}

  void reset() {
    ns_.store(0);
    calls_.store(0);
  }
  [[nodiscard]] double update_seconds() const { return ns_.load() * 1e-9; }
  [[nodiscard]] std::int64_t updates() const { return calls_.load(); }

  index_t num_blocks() const override { return inner_.num_blocks(); }
  index_t num_rows() const override { return inner_.num_rows(); }
  std::span<const index_t> halo(index_t block) const override {
    return inner_.halo(block);
  }
  std::pair<index_t, index_t> rows(index_t block) const override {
    return inner_.rows(block);
  }
  void update(index_t block, std::span<const bars::value_t> halo_values,
              std::span<bars::value_t> x,
              const bars::gpusim::ExecContext& ctx) const override;
  bool parallel_commit_safe() const override {
    return inner_.parallel_commit_safe();
  }
  void set_rhs(const Vector& b) override { inner_.set_rhs(b); }
  const Vector& rhs() const noexcept override { return inner_.rhs(); }
  const bars::RowPartition& partition() const noexcept override {
    return inner_.partition();
  }
  index_t local_iters() const noexcept override { return inner_.local_iters(); }
  index_t overlap() const noexcept override { return inner_.overlap(); }
  void set_per_block_iters(std::vector<index_t> per_block) override {
    inner_.set_per_block_iters(std::move(per_block));
  }
  index_t block_local_iters(index_t block) const override {
    return inner_.block_local_iters(block);
  }
  std::string_view backend_name() const noexcept override {
    return inner_.backend_name();
  }

 private:
  bars::backend::BlockSweepKernel& inner_;
  mutable std::atomic<std::int64_t> ns_{0};
  mutable std::atomic<std::int64_t> calls_{0};
};

/// Compulsory bytes of one block update (each array it touches counted
/// once; 8-byte values, indices and iterate entries, the scalar kernel's
/// layout), computed from the CSR split and averaged over the blocks.
[[nodiscard]] double computed_bytes_per_update(const Csr& a, index_t block_size,
                                               index_t local_iters);

struct StreamResult {
  double gbs = 0.0;            ///< best triad rate over the repeats
  std::size_t array_bytes = 0; ///< bytes of the three arrays together
};
/// STREAM-style triad a = b + s*c, single thread, over arrays whose total
/// size is `working_set_bytes`.
[[nodiscard]] StreamResult stream_triad(std::size_t working_set_bytes);

// ---------------------------------------------------------------------
// Metric sink

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation; `ok` false makes it a failed one.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------
// Workloads (workloads.cpp)

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload and fills `report` with the end-to-end metrics
/// (untraced) or the per-layer metrics (traced).
void run_workload(const Args& args, Report& report);

}  // namespace perfbench
