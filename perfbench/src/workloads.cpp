// The three workloads: set-up, the timed operation loop, the output checks,
// and (traced runs) the per-layer breakdown.

#include <sched.h>

#include <algorithm>
#include <map>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "backend/registry.hpp"
#include "bench.hpp"
#include "core/block_async.hpp"
#include "core/thread_async.hpp"
#include "service/fingerprint.hpp"
#include "service/solve_service.hpp"
#include "sparse/matrix_market.hpp"

namespace perfbench {

namespace {

using bars::BlockAsyncOptions;
using bars::BlockAsyncResult;
namespace service = bars::service;

enum class Kind { kOneShot, kService };

struct Def {
  std::string name;
  Kind kind;
  index_t local_iters;      ///< the k of async-(k)
  std::string backend;
  bool prebuild_plans;      ///< set-up keeps plans resident
  std::size_t cache_capacity;
  std::size_t clients;      ///< closed-loop clients (requests in flight)
};

// Both service workloads keep one request in flight: the per-request path
// (fingerprints, queue hop, plan lookup, and on a miss the plan build)
// blocks the result in full, and the run leans on one core, so its figures
// do not depend on how many of a shared host's cores are free.
const std::vector<Def>& defs() {
  static const std::vector<Def> all = {
      {"oneshot-async1", Kind::kOneShot, 1, "scalar", false, 0, 0},
      {"service-hot", Kind::kService, 5, "auto", true, 8, 1},
      {"service-churn", Kind::kService, 5, "auto", false, 4, 1},
  };
  return all;
}

const Def& find_def(const std::string& name) {
  for (const Def& d : defs()) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

constexpr index_t kBlockSize = 448;  // the paper's production block size
// Set-up runs once before the timed phase and this many times after it,
// once peak_rss_mb is read, so earlier set-ups' buffers stay out of it.
constexpr int kSetupRepsAfter = 6;
// latency_tail_s on every workload. The highest percentile with ten samples
// above it rests on those ten and did not repeat between runs of the same
// code on a shared host; p90 keeps at least twelve samples above it in a
// 30-second run of the slowest workload.
constexpr double kTailP = 0.90;
// The traced run's reference probe of thread_async_solve: async-(5).
constexpr index_t kThreadsLocalIters = 5;

BlockAsyncOptions gpusim_options(const Def& d) {
  BlockAsyncOptions o;  // the paper's defaults otherwise (seed 99, jitter)
  o.solve.tol = kTol;
  o.block_size = kBlockSize;
  o.local_iters = d.local_iters;
  o.backend = d.backend;
  return o;
}

bars::ThreadAsyncOptions thread_options(index_t local_iters) {
  bars::ThreadAsyncOptions o;
  o.solve.tol = kTol;
  o.block_size = kBlockSize;
  o.local_iters = local_iters;
  o.num_threads = kSolverThreads;
  return o;
}

bars::RegistrySolveOptions request_options() {
  bars::RegistrySolveOptions o;
  o.solve.tol = kTol;
  o.block_size = kBlockSize;
  o.local_iters = 5;
  o.backend = "auto";
  return o;
}

/// What a served request must equal bit for bit: the service mirrors the
/// registry's block-async entry, which maps these fields one to one.
BlockAsyncOptions direct_options(const bars::RegistrySolveOptions& r) {
  BlockAsyncOptions o;
  o.solve = r.solve;
  o.block_size = r.block_size;
  o.local_iters = r.local_iters;
  o.backend = r.backend;
  o.seed = r.seed;
  return o;
}

service::ServiceOptions service_options(std::size_t cache_capacity) {
  service::ServiceOptions o;
  o.num_workers = kSolverThreads;
  o.plan_cache_capacity = cache_capacity;
  return o;
}

/// The matrix the round requests most often (the hot one).
std::size_t primary_matrix(const Inputs& in) {
  std::vector<std::size_t> n(in.matrices.size(), 0);
  for (const Pair& p : in.round) ++n[p.matrix];
  return static_cast<std::size_t>(std::max_element(n.begin(), n.end()) -
                                  n.begin());
}

// ---------------------------------------------------------------------
// Set-up

struct Loaded {
  std::vector<std::shared_ptr<const Csr>> matrices;
  std::unique_ptr<service::SolveService> service;
  double setup_s = 0.0;
};

/// One set-up: read every input file, then (service workloads) start the
/// service and pre-build the plans the workload keeps resident.
Loaded set_up(const Def& d, const Inputs& in, Tracer& tr, Report& rep) {
  Loaded l;
  const auto t0 = Clock::now();
  for (const std::string& f : in.files) {
    Scope s(tr, "sparse.read_matrix_market_file");
    l.matrices.push_back(
        std::make_shared<const Csr>(bars::read_matrix_market_file(f)));
  }
  if (d.kind == Kind::kService) {
    l.service = std::make_unique<service::SolveService>(
        service_options(d.cache_capacity));
    if (d.prebuild_plans) {
      const auto ro = request_options();
      for (const auto& m : l.matrices) {
        (void)l.service->plan_cache().acquire(
            *m, {ro.block_size, ro.local_iters, ro.backend});
      }
    }
  }
  l.setup_s = seconds_since(t0);
  // Each file must read back to exactly the matrix that was written.
  for (std::size_t m = 0; m < l.matrices.size(); ++m) {
    rep.count(same_matrix(*l.matrices[m], in.matrices[m]));
  }
  return l;
}

// ---------------------------------------------------------------------
// Timed phase

struct OpRecord {
  double latency = 0.0;
  double iterations = 0.0;
  std::size_t pair = 0;     ///< index into Inputs::round
  bool ok = false;          ///< converged and passed the per-op checks
  double queue_s = 0.0;     ///< service: SolveResponse::queue_seconds
  double solve_s = 0.0;     ///< service: SolveResponse::solve_seconds
  bars::index_t block_execs = 0;  ///< threads: total block executions
};

struct Phase {
  std::vector<OpRecord> ops;
  double wall = 0.0;
  double cpu = 0.0;
  service::ServiceStats stats_before, stats_after;
};

/// Hands out operation indices until the time is up, then finishes the
/// current round, so every timed run attempts whole rounds; `max_ops`
/// caps the untimed warm-up and reference probes.
class OpClock {
 public:
  OpClock(double seconds, std::size_t round, std::int64_t max_ops)
      : seconds_(seconds), round_(static_cast<std::int64_t>(round)),
        max_ops_(max_ops), t0_(Clock::now()) {}

  std::optional<std::int64_t> claim() {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ >= max_ops_) return std::nullopt;
    if (!stop_at_ && seconds_since(t0_) >= seconds_) {
      stop_at_ = (std::max<std::int64_t>(next_, 1) + round_ - 1) / round_ * round_;
    }
    if (stop_at_ && next_ >= *stop_at_) return std::nullopt;
    return next_++;
  }

 private:
  double seconds_;
  std::int64_t round_;
  std::int64_t max_ops_;
  Clock::time_point t0_;
  std::mutex mu_;
  std::int64_t next_ = 0;
  std::optional<std::int64_t> stop_at_;
};

/// Index of a distinct (matrix, right-hand side) input.
std::size_t input_key(const Inputs& in, const Pair& p) {
  return p.matrix * in.rhs.front().size() + p.rhs;
}

/// First result seen for each distinct input; later results of a
/// deterministic solver must repeat it bit for bit.
class FirstResults {
 public:
  explicit FirstResults(const Inputs& in)
      : first_(in.matrices.size() * in.rhs.front().size()) {}

  /// True when `x` is the first result for `pair` or equals it exactly.
  bool check(std::size_t key, const Vector& x, double iterations) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& f = first_[key];
    if (!f) {
      f.emplace(x, iterations);
      return true;
    }
    return f->second == iterations && same_bits(f->first, x);
  }
  [[nodiscard]] const std::optional<std::pair<Vector, double>>& first(
      std::size_t key) const {
    return first_[key];
  }

 private:
  std::mutex mu_;
  std::vector<std::optional<std::pair<Vector, double>>> first_;
};

/// Spans of one traced gpusim solve on a TimedKernel: the solve and the
/// kernel updates it made (one aggregate child), then three timed
/// relative_residual calls on the solve's own matrix and iterate. The
/// monitor's share is added later as a computed child: evaluations x the
/// median cost of one call.
struct GpusimSample {
  std::int64_t span = -1;  ///< the solve span
  double solve_s = 0.0, update_s = 0.0, updates = 0.0, evals = 0.0;
  double max_staleness = 0.0;
};

BlockAsyncResult traced_gpusim_solve(Tracer& tr, const Csr& a, const Vector& b,
                                     TimedKernel& k,
                                     const BlockAsyncOptions& o,
                                     std::int64_t parent, std::int64_t op,
                                     std::vector<GpusimSample>& samples) {
  k.reset();
  Scope s(tr, "gpusim.block_async_solve_with_kernel", parent, op);
  const double start = tr.now();
  BlockAsyncResult r = bars::block_async_solve_with_kernel(a, b, k, o);
  s.close();
  GpusimSample g;
  g.span = s.id();
  g.solve_s = tr.now() - start;
  g.update_s = k.update_seconds();
  g.updates = static_cast<double>(k.updates());
  g.evals = static_cast<double>(r.solve.residual_history.size());
  g.max_staleness = static_cast<double>(r.max_staleness);
  tr.add({"backend.update", start, start + g.update_s, 0, s.id(), op,
          k.updates(), false});
  // The cost of one monitor evaluation, measured right after the solve
  // while its matrix and iterate are as warm as inside it.
  for (int i = 0; i < 3; ++i) {
    Scope rs(tr, "sparse.relative_residual", -1, op);
    volatile double rr = bars::relative_residual(a, b, r.solve.x);
    (void)rr;
  }
  samples.push_back(g);
  return r;
}

Phase run_oneshot(const Def& d, const Inputs& in, const Loaded& l,
                  double seconds, Tracer& tr, FirstResults& firsts,
                  std::vector<GpusimSample>& gs, std::int64_t max_ops) {
  const BlockAsyncOptions o = gpusim_options(d);
  Phase ph;
  OpClock clock(seconds, in.round.size(), max_ops);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  while (const auto op = clock.claim()) {
    const std::size_t pi = static_cast<std::size_t>(*op) % in.round.size();
    const Pair p = in.round[pi];
    const Csr& a = *l.matrices[p.matrix];
    const Vector& b = in.rhs[p.matrix][p.rhs];
    OpRecord rec;
    rec.pair = pi;
    const auto s0 = Clock::now();
    BlockAsyncResult r;
    if (!tr.enabled()) {
      r = bars::block_async_solve(a, b, o);
    } else {
      // block_async_solve = build_kernel + block_async_solve_with_kernel;
      // traced, the two halves are called apart so each gets a span.
      Scope op_span(tr, "op.block_async_solve", -1, *op);
      std::unique_ptr<bars::backend::BlockSweepKernel> kernel;
      {
        Scope s(tr, "backend.build_kernel", op_span.id(), *op);
        kernel = bars::backend::build_kernel(
            o.backend, a, b, bars::RowPartition::uniform(a.rows(), o.block_size),
            {o.local_iters});
      }
      TimedKernel k(*kernel);
      r = traced_gpusim_solve(tr, a, b, k, o, op_span.id(), *op, gs);
    }
    rec.latency = seconds_since(s0);
    rec.iterations = static_cast<double>(r.solve.iterations);
    rec.ok = r.solve.status == bars::SolverStatus::kConverged &&
             firsts.check(input_key(in, p), r.solve.x, rec.iterations);
    ph.ops.push_back(std::move(rec));
  }
  ph.wall = seconds_since(t0);
  ph.cpu = process_cpu_s() - cpu0;
  return ph;
}

/// The traced run's thread_async_solve probe: `max_ops` solves of the
/// primary matrix's pairs, async-(5) on 3 threads.
Phase run_threads(const Inputs& in, const Loaded& l, Tracer& tr,
                  std::int64_t max_ops, std::size_t matrix) {
  const bars::ThreadAsyncOptions o = thread_options(kThreadsLocalIters);
  Phase ph;
  std::vector<std::size_t> pairs;
  for (std::size_t i = 0; i < in.round.size(); ++i) {
    if (in.round[i].matrix == matrix) pairs.push_back(i);
  }
  OpClock clock(1e9, pairs.size(), max_ops);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  while (const auto op = clock.claim()) {
    const std::size_t pi = pairs[static_cast<std::size_t>(*op) % pairs.size()];
    const Pair p = in.round[pi];
    OpRecord rec;
    rec.pair = pi;
    const auto s0 = Clock::now();
    bars::ThreadAsyncResult r;
    {
      Scope s(tr, "core.thread_async_solve", -1, *op);
      r = bars::thread_async_solve(*l.matrices[p.matrix],
                                   in.rhs[p.matrix][p.rhs], o);
    }
    rec.latency = seconds_since(s0);
    rec.iterations = static_cast<double>(r.solve.iterations);
    rec.block_execs = r.total_block_executions;
    // Chaotic relaxation has no bitwise repeatability, so every iterate is
    // checked against its residual here, outside the operation's latency
    // (keeping them all for later would make peak memory grow with speed).
    rec.ok = r.solve.status == bars::SolverStatus::kConverged &&
             residual_ok(own_relative_residual(*l.matrices[p.matrix],
                                               in.rhs[p.matrix][p.rhs], r.solve.x));
    ph.ops.push_back(std::move(rec));
  }
  ph.wall = seconds_since(t0);
  ph.cpu = process_cpu_s() - cpu0;
  return ph;
}

Phase run_service(const Inputs& in, const Loaded& l, std::size_t clients,
                  double seconds, Tracer& tr, FirstResults& firsts,
                  std::int64_t max_ops) {
  service::SolveService& svc = *l.service;
  const auto ro = request_options();
  Phase ph;
  ph.stats_before = svc.stats();
  OpClock clock(seconds, in.round.size(), max_ops);
  std::vector<std::vector<OpRecord>> per_client(clients);
  const auto client = [&](std::vector<OpRecord>& out) {
    while (const auto op = clock.claim()) {
      const std::size_t pi = static_cast<std::size_t>(*op) % in.round.size();
      const Pair p = in.round[pi];
      service::SolveRequest req;
      req.matrix = l.matrices[p.matrix];
      req.b = in.rhs[p.matrix][p.rhs];
      req.options = ro;
      OpRecord rec;
      rec.pair = pi;
      const auto s0 = Clock::now();
      Scope s(tr, "service.submit_wait", -1, *op);
      const std::shared_ptr<service::Ticket> ticket = svc.submit(std::move(req));
      const service::SolveResponse& resp = ticket->wait();
      s.close();
      rec.latency = seconds_since(s0);
      rec.iterations = static_cast<double>(resp.result.iterations);
      rec.queue_s = resp.queue_seconds;
      rec.solve_s = resp.solve_seconds;
      rec.ok = resp.ok() &&
               resp.result.status == bars::SolverStatus::kConverged &&
               firsts.check(input_key(in, p), resp.result.x, rec.iterations);
      out.push_back(std::move(rec));
    }
  };
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (auto& out : per_client) threads.emplace_back(client, std::ref(out));
    for (auto& t : threads) t.join();
  }
  ph.wall = seconds_since(t0);
  ph.cpu = process_cpu_s() - cpu0;
  ph.stats_after = svc.stats();
  for (auto& out : per_client) {
    for (auto& r : out) ph.ops.push_back(std::move(r));
  }
  return ph;
}

/// Runs the workload's own operation loop for `seconds` (or `max_ops`).
Phase run_phase(const Def& d, const Inputs& in, const Loaded& l, double seconds,
                Tracer& tr, FirstResults& firsts,
                std::vector<GpusimSample>& gs,
                std::int64_t max_ops = INT64_MAX) {
  switch (d.kind) {
    case Kind::kOneShot:
      return run_oneshot(d, in, l, seconds, tr, firsts, gs, max_ops);
    case Kind::kService:
      return run_service(in, l, d.clients, seconds, tr, firsts, max_ops);
  }
  return {};
}

/// Appends phase `p` to `into`: operations, wall and CPU time add up, and
/// the service counters span from the first phase to the last.
void append(Phase& into, Phase p) {
  if (into.ops.empty()) into.stats_before = p.stats_before;
  into.stats_after = p.stats_after;
  into.wall += p.wall;
  into.cpu += p.cpu;
  for (OpRecord& r : p.ops) into.ops.push_back(std::move(r));
}

/// A few untimed operations so lazy set-up (page faults, backend probes, thread
/// start) is paid before timing.
void warm_up(const Def& d, const Inputs& in, const Loaded& l) {
  Tracer off(false);
  FirstResults scratch(in);
  std::vector<GpusimSample> gs;
  switch (d.kind) {
    case Kind::kOneShot:
      (void)run_oneshot(d, in, l, 1e9, off, scratch, gs, 1);
      break;
    case Kind::kService:
      (void)run_service(in, l, d.clients, 1e9, off, scratch,
                        static_cast<std::int64_t>(d.clients));
      break;
  }
}

// ---------------------------------------------------------------------
// Checks after a phase

/// Checks each pair's first result against the benchmark's own residual
/// and, for served requests (`served`), against a direct solve; marks every
/// op of a failing pair failed.
void check_pairs(bool served, const Inputs& in, const Loaded& l,
                 const FirstResults& firsts, std::vector<OpRecord>& ops) {
  std::vector<bool> input_ok(in.matrices.size() * in.rhs.front().size(), true);
  for (std::size_t m = 0; m < in.matrices.size(); ++m) {
    for (std::size_t k = 0; k < in.rhs[m].size(); ++k) {
      const auto& f = firsts.first(input_key(in, {m, k}));
      if (!f) continue;
      const Csr& a = *l.matrices[m];
      const Vector& b = in.rhs[m][k];
      bool ok = residual_ok(own_relative_residual(a, b, f->first));
      if (served) {
        // The service guarantees a served block-async solve is
        // bit-identical to block_async_solve with the same options.
        const BlockAsyncResult direct =
            bars::block_async_solve(a, b, direct_options(request_options()));
        ok = ok && same_bits(direct.solve.x, f->first) &&
             static_cast<double>(direct.solve.iterations) == f->second;
      }
      input_ok[input_key(in, {m, k})] = ok;
    }
  }
  for (OpRecord& r : ops) {
    if (!input_ok[input_key(in, in.round[r.pair])]) r.ok = false;
  }
}

std::vector<double> field(const std::vector<OpRecord>& ops,
                          double OpRecord::*f) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpRecord& r : ops) v.push_back(r.*f);
  return v;
}

void count_ops(const std::vector<OpRecord>& ops, Report& rep) {
  for (const OpRecord& r : ops) rep.count(r.ok);
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics

struct Layers {
  const Def& d;
  const Inputs& in;
  const Loaded& l;
  Tracer& tr;
  Report& rep;
  std::size_t primary;
};

void sparse_layer(Layers& c) {
  const auto reads = c.tr.durations("sparse.read_matrix_market_file");
  double bytes = 0.0;
  for (const std::string& f : c.in.files) {
    bytes += static_cast<double>(std::filesystem::file_size(f));
  }
  const double per_read = median(reads);
  c.rep.set("sparse.mtx_read_s", per_read * static_cast<double>(c.in.files.size()), "s");
  c.rep.set("sparse.mtx_read_mbps",
            bytes / static_cast<double>(c.in.files.size()) / per_read / 1e6, "MB/s");
}

/// Kernel and event-loop split of gpusim solves; for workloads whose
/// operation is not a gpusim solve, direct prebuilt-kernel solves of the
/// workload's pairs in its own configuration.
void gpusim_layer(Layers& c, std::vector<GpusimSample>& gs,
                  std::vector<double>& direct_by_pair) {
  const BlockAsyncOptions o = gpusim_options(c.d);
  if (c.d.kind != Kind::kOneShot) {
    std::map<std::pair<std::size_t, std::size_t>, double> direct;
    for (const Pair& p : c.in.round) direct[{p.matrix, p.rhs}] = 0.0;
    for (std::size_t m = 0; m < c.in.matrices.size(); ++m) {
      const Csr& a = *c.l.matrices[m];
      std::unique_ptr<bars::backend::BlockSweepKernel> kernel;
      for (int rep = 0; rep < (m == c.primary ? 3 : 1); ++rep) {
        Scope s(c.tr, "backend.build_kernel");
        kernel = bars::backend::build_kernel(
            o.backend, a, c.in.rhs[m][0],
            bars::RowPartition::uniform(a.rows(), o.block_size), {o.local_iters});
      }
      TimedKernel k(*kernel);
      for (auto& [key, t] : direct) {
        if (key.first != m) continue;
        (void)traced_gpusim_solve(c.tr, a, c.in.rhs[m][key.second], k, o, -1,
                                  -1, gs);
        t = gs.back().solve_s;
      }
    }
    for (const Pair& p : c.in.round) direct_by_pair.push_back(direct[{p.matrix, p.rhs}]);
  }
  const double residual_s = median(c.tr.durations("sparse.relative_residual"));
  c.rep.set("sparse.residual_s", residual_s, "s/call");
  // The monitor's residual evaluations, as computed children of each
  // solve span, so update + monitor + loop self time = the solve span.
  const std::vector<Span> spans = c.tr.spans();
  for (const GpusimSample& g : gs) {
    const double start = spans[static_cast<std::size_t>(g.span)].start;
    c.tr.add({"gpusim.monitor", start, start + g.evals * residual_s, 0, g.span,
              -1, static_cast<std::int64_t>(g.evals), true});
  }
  c.rep.set("backend.build_s", median(c.tr.durations("backend.build_kernel")), "s");
  std::vector<double> upd, n, stale;
  for (const GpusimSample& g : gs) {
    upd.push_back(g.update_s);
    n.push_back(g.updates);
    stale.push_back(g.max_staleness);
  }
  c.rep.set("backend.update_s", median(upd), "s/op");
  c.rep.set("backend.updates", median(n), "count/op");
  c.rep.set("gpusim.monitor_s", median(c.tr.durations("gpusim.monitor")), "s/op");
  c.rep.set("gpusim.loop_s",
            median(c.tr.self_times("gpusim.block_async_solve_with_kernel")), "s/op");
  c.rep.set("gpusim.max_staleness", median(stale), "count");

  // Kernel rate against streaming bandwidth at the kernel's working set.
  const Csr& a = *c.l.matrices[c.primary];
  const double per_update =
      computed_bytes_per_update(a, o.block_size, o.local_iters);
  double rate_num = 0.0, rate_den = 0.0;
  for (const GpusimSample& g : gs) {
    rate_num += per_update * g.updates;
    rate_den += g.update_s;
  }
  const double sweep_gbs = rate_num / rate_den / 1e9;
  const index_t q = (a.rows() + o.block_size - 1) / o.block_size;
  const double working_set =
      computed_bytes_per_update(a, o.block_size, 1) * static_cast<double>(q);
  const StreamResult st = stream_triad(static_cast<std::size_t>(working_set));
  c.rep.set("backend.bytes_per_update", per_update, "B");
  c.rep.set("backend.sweep_gbs", sweep_gbs, "GB/s");
  c.rep.set("backend.stream_gbs", st.gbs, "GB/s");
  c.rep.set("backend.roofline_frac", sweep_gbs / st.gbs, "ratio");
  std::cerr << "perfbench: kernel working set " << working_set / 1e6
            << " MB (one sweep, computed); triad arrays " << st.array_bytes / 1e6
            << " MB; " << per_update << " computed B/update\n";
}

void parallel_commit_layer(Layers& c) {
  BlockAsyncOptions o = gpusim_options(c.d);
  const Csr& a = *c.l.matrices[c.primary];
  auto kernel = bars::backend::build_kernel(
      o.backend, a, c.in.rhs[c.primary][0],
      bars::RowPartition::uniform(a.rows(), o.block_size), {o.local_iters});
  std::vector<double> serial, parallel;
  for (int rep = 0; rep < 3; ++rep) {
    const Vector& b = c.in.rhs[c.primary][static_cast<std::size_t>(rep) %
                                          c.in.rhs[c.primary].size()];
    o.num_workers = 0;
    auto t0 = Clock::now();
    const BlockAsyncResult s = bars::block_async_solve_with_kernel(a, b, *kernel, o);
    serial.push_back(seconds_since(t0));
    o.num_workers = kSolverThreads;
    t0 = Clock::now();
    const BlockAsyncResult p = bars::block_async_solve_with_kernel(a, b, *kernel, o);
    parallel.push_back(seconds_since(t0));
    // The parallel commit path is documented bit-identical to serial.
    c.rep.count(same_bits(s.solve.x, p.solve.x) &&
                s.solve.iterations == p.solve.iterations);
  }
  c.rep.set("gpusim.parallel_commit_speedup", median(serial) / median(parallel),
            "ratio");
}

/// Reference probe of the real-thread executor on the primary matrix; its
/// results are checked one by one inside run_threads.
void threads_layer(Layers& c) {
  const Phase probe = run_threads(c.in, c.l, c.tr, 16, c.primary);
  count_ops(probe.ops, c.rep);
  double execs = 0.0, time = 0.0;
  for (const OpRecord& r : probe.ops) {
    execs += static_cast<double>(r.block_execs);
    time += r.latency;
  }
  c.rep.set("core.threads_block_execs_per_s", execs / time, "1/s");
  c.rep.set("core.threads_iterations_iqr",
            iqr(field(probe.ops, &OpRecord::iterations)), "count");
}

void service_layer(Layers& c, const Phase* own,
                   const std::vector<double>& direct_by_pair) {
  for (int i = 0; i < 10; ++i) {
    Scope s(c.tr, "service.matrix_fingerprint");
    volatile std::uint64_t h = service::matrix_fingerprint(*c.l.matrices[c.primary]);
    (void)h;
  }
  c.rep.set("service.fingerprint_s",
            median(c.tr.durations("service.matrix_fingerprint")), "s/call");

  // Plan builds: PlanCache::acquire misses on a private cache.
  const auto ro = request_options();
  for (int rep = 0; rep < (c.in.matrices.size() > 1 ? 1 : 3); ++rep) {
    service::PlanCache cache(c.in.matrices.size());
    for (const auto& m : c.l.matrices) {
      Scope s(c.tr, "service.plan_cache_acquire");
      (void)cache.acquire(*m, {ro.block_size, ro.local_iters, ro.backend});
    }
  }
  c.rep.set("service.plan_build_s",
            median(c.tr.durations("service.plan_cache_acquire")), "s");

  Phase probe;
  std::vector<double> direct = direct_by_pair;
  if (own == nullptr) {
    // Reference probe: the hot service shape (3 workers, one request in
    // flight, async-(5), backend auto) on this workload's pairs.
    const Def& hot = find_def("service-hot");
    Loaded l2;
    l2.matrices = c.l.matrices;
    l2.service = std::make_unique<service::SolveService>(
        service_options(hot.cache_capacity));
    Tracer off(false);
    FirstResults firsts(c.in);
    probe = run_service(c.in, l2, hot.clients, 1e9, off, firsts, 12);
    check_pairs(true, c.in, l2, firsts, probe.ops);
    count_ops(probe.ops, c.rep);
    // Direct solves in the request's own configuration.
    const BlockAsyncOptions o = direct_options(ro);
    direct.assign(c.in.round.size(), 0.0);
    const Csr& a = *c.l.matrices[c.primary];
    auto kernel = bars::backend::build_kernel(
        o.backend, a, c.in.rhs[c.primary][0],
        bars::RowPartition::uniform(a.rows(), o.block_size), {o.local_iters});
    for (std::size_t pi = 0; pi < c.in.round.size(); ++pi) {
      const auto t0 = Clock::now();
      (void)bars::block_async_solve_with_kernel(
          a, c.in.rhs[c.primary][c.in.round[pi].rhs], *kernel, o);
      direct[pi] = seconds_since(t0);
    }
    own = &probe;
  }
  std::vector<double> per_op;
  double busy = 0.0;
  for (const OpRecord& r : own->ops) {
    per_op.push_back(direct[r.pair]);
    busy += direct[r.pair];
  }
  const double p50 = median(field(own->ops, &OpRecord::latency));
  c.rep.set("service.queue_s", median(field(own->ops, &OpRecord::queue_s)), "s");
  c.rep.set("service.solve_s", median(field(own->ops, &OpRecord::solve_s)), "s");
  c.rep.set("service.direct_solve_s", median(per_op), "s");
  c.rep.set("service.overhead_s", p50 - median(per_op), "s");
  c.rep.set("service.worker_busy_frac",
            busy / (static_cast<double>(kSolverThreads) * own->wall), "ratio");
  const auto& s0 = own->stats_before;
  const auto& s1 = own->stats_after;
  c.rep.set("service.plan_hits",
            static_cast<double>(s1.plan_cache.hits - s0.plan_cache.hits), "count");
  c.rep.set("service.plan_misses",
            static_cast<double>(s1.plan_cache.misses - s0.plan_cache.misses), "count");
  c.rep.set("service.plan_evictions",
            static_cast<double>(s1.plan_cache.evictions - s0.plan_cache.evictions),
            "count");
  c.rep.set("service.batched_requests",
            static_cast<double>(s1.batched_requests - s0.batched_requests), "count");
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the last CPU it may run on. Untraced runs do this first: handing a
/// request from one thread to another then stays on one CPU, instead of
/// waking a second virtual CPU, which a busy host delays by milliseconds.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Def& d : defs()) n.push_back(d.name);
    return n;
  }();
  return names;
}

void run_workload(const Args& args, Report& rep) {
  const Def& d = find_def(args.workload);
  // The traced run keeps every CPU: its probes run 3 solver threads.
  if (!args.trace) pin_to_one_cpu();
  const std::string dir = args.workdir + "/inputs/" + d.name + "-" +
                          std::to_string(args.seed);
  Tracer tr(args.trace);
  const Inputs in = make_inputs(d.name, args.seed, dir);
  tr.add({"matrices.generate", 0.0, in.generate_s, 0, -1, -1, 1, false});

  Loaded l = set_up(d, in, tr, rep);
  std::vector<double> setup_s = {l.setup_s};
  warm_up(d, in, l);
  const auto set_up_again = [&] {
    for (int r = 0; r < kSetupRepsAfter; ++r) {
      setup_s.push_back(set_up(d, in, tr, rep).setup_s);
    }
  };

  if (!args.trace) {
    Tracer off(false);
    FirstResults firsts(in);
    std::vector<GpusimSample> gs;
    Phase ph = run_phase(d, in, l, args.seconds, off, firsts, gs);
    rep.set("peak_rss_mb", peak_rss_mb(), "MB");
    set_up_again();
    check_pairs(d.kind == Kind::kService, in, l, firsts, ph.ops);
    count_ops(ph.ops, rep);
    const auto lat = field(ph.ops, &OpRecord::latency);
    rep.set("setup_s", median(setup_s), "s");
    rep.set("latency_p50_s", median(lat), "s");
    rep.set("latency_tail_s", percentile(lat, kTailP), "s");
    rep.set("throughput_ops_s", static_cast<double>(ph.ops.size()) / ph.wall,
            "ops/s");
    rep.set("iterations_p50", median(field(ph.ops, &OpRecord::iterations)),
            "count");
    rep.set("cpu_s_per_op", ph.cpu / static_cast<double>(ph.ops.size()), "s");
    std::cerr << "perfbench: " << d.name << " " << ph.ops.size()
              << " operations in " << ph.wall << " s; tail = p"
              << kTailP * 100 << "; latency";
    for (const double q : {0.9, 0.95, 0.97, 0.98, 0.99, 0.995, 0.997}) {
      std::cerr << " p" << q * 100 << "=" << percentile(lat, q);
    }
    std::cerr << "\n";
  } else {
    // Untraced and traced rounds alternate for the whole run, so both see
    // the same machine state; the ratio of their median latencies is the
    // tracing overhead.
    Tracer off(false);
    FirstResults firsts(in);
    std::vector<GpusimSample> gs;
    const auto round = static_cast<std::int64_t>(in.round.size());
    Phase all;
    std::vector<double> plain_lat, traced_lat;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < args.seconds) {
      for (Tracer* t : {&off, &tr}) {
        Phase p = run_phase(d, in, l, 1e9, *t, firsts, gs, round);
        for (const OpRecord& r : p.ops) {
          (t == &tr ? traced_lat : plain_lat).push_back(r.latency);
        }
        append(all, std::move(p));
      }
    }
    set_up_again();
    check_pairs(d.kind == Kind::kService, in, l, firsts, all.ops);
    count_ops(all.ops, rep);

    Layers c{d, in, l, tr, rep, primary_matrix(in)};
    rep.set("matrices.generate_s", in.generate_s, "s");
    sparse_layer(c);
    std::vector<double> direct_by_pair;
    gpusim_layer(c, gs, direct_by_pair);
    parallel_commit_layer(c);
    threads_layer(c);
    service_layer(c, d.kind == Kind::kService ? &all : nullptr, direct_by_pair);
    rep.set("trace.overhead_frac", median(traced_lat) / median(plain_lat) - 1.0,
            "ratio");

    std::filesystem::create_directories(args.workdir + "/traces");
    const std::string path = args.workdir + "/traces/" + d.name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    tr.write_jsonl(path);
    std::cerr << "perfbench: " << tr.spans().size() << " spans written to "
              << path << "\n";
  }
  l.service.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
