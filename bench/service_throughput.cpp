/// Service-layer benchmark: what the plan cache and the request engine
/// actually buy.
///
///   build/bench/service_throughput [--repeats=5] [--requests=48]
///       [--n=63] [--iters=40]
///
/// Part 1 — plan amortization: median wall latency of a cold request
/// (plan build + solve) vs a plan-cache-hit request (solve only) on the
/// same matrix. Both requests run one global iteration, so the solve
/// does not bury the plan build (a hit still hashes the matrix twice,
/// which costs about as much as the build). The hit must come in below
/// cold — that gap is exactly the per-matrix setup the cache amortizes
/// — and each fresh service must count exactly one plan-cache miss and
/// one hit.
///
/// Part 2 — throughput: requests/sec for a burst of same-matrix
/// requests under different worker counts, with batching on and off.
///
/// Wall-clock timing is deliberate here (this measures the service
/// engine, not the simulated GPU), so numbers vary run to run; the
/// cold/hit ordering does not.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "matrices/generators.hpp"
#include "report/args.hpp"
#include "report/table.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace bars;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

[[nodiscard]] service::SolveRequest make_request(
    const std::shared_ptr<const Csr>& a, index_t iters, std::size_t salt) {
  service::SolveRequest req;
  req.matrix = a;
  req.b = Vector(static_cast<std::size_t>(a->rows()),
                 1.0 + 0.001 * static_cast<value_t>(salt));
  // Fixed iteration budget: every request does identical solver work,
  // so latency differences isolate the service machinery.
  req.options.solve.max_iters = iters;
  req.options.solve.tol = 0.0;
  req.options.solve.record_history = false;
  req.options.block_size = 448;
  req.options.local_iters = 5;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  const auto unknown =
      args.unknown_keys({"repeats", "requests", "n", "iters", "help"});
  if (!unknown.empty()) {
    std::cerr << "service_throughput: unknown flag --" << unknown.front()
              << "\nvalid flags: --repeats --requests --n --iters; the "
                 "service layer is documented in docs/SERVICE.md\n";
    return 2;
  }
  if (args.has("help")) {
    std::cout << "usage: service_throughput [--repeats=5] [--requests=48] "
                 "[--n=63] [--iters=40]\nsee docs/SERVICE.md\n";
    return 0;
  }
  const int repeats =
      std::max(1, static_cast<int>(args.get_int("repeats", 5)));
  const std::size_t requests = static_cast<std::size_t>(
      std::max(1, static_cast<int>(args.get_int("requests", 48))));
  const index_t n = static_cast<index_t>(args.get_int("n", 63));
  const index_t iters = static_cast<index_t>(args.get_int("iters", 40));

  const auto a = std::make_shared<const Csr>(fv_like(n, 0.8));
  std::cout << "matrix: fv_like(" << n << "), n = " << a->rows()
            << ", nnz = " << a->nnz() << "; 1 global iteration per "
            << "amortization request, " << iters << " per throughput "
            << "request\n\n";

  // ---- Part 1: cold setup vs plan-cache hit ------------------------
  std::vector<double> cold_ms, hit_ms;
  for (int r = 0; r < repeats; ++r) {
    service::ServiceOptions so;
    so.num_workers = 1;
    service::SolveService svc(so);  // fresh service: empty plan cache

    auto t0 = Clock::now();
    const service::SolveResponse cold =
        svc.solve(make_request(a, 1, static_cast<std::size_t>(r)));
    cold_ms.push_back(ms_since(t0));
    if (cold.outcome != service::RequestOutcome::kSolved ||
        cold.plan_cache_hit) {
      std::cerr << "cold request went wrong: " << cold.error << '\n';
      return 1;
    }

    t0 = Clock::now();
    const service::SolveResponse hit =
        svc.solve(make_request(a, 1, static_cast<std::size_t>(r) + 1000));
    hit_ms.push_back(ms_since(t0));
    if (hit.outcome != service::RequestOutcome::kSolved ||
        !hit.plan_cache_hit) {
      std::cerr << "hit request went wrong: " << hit.error << '\n';
      return 1;
    }
    const service::PlanCacheStats plans = svc.stats().plan_cache;
    if (plans.misses != 1 || plans.hits != 1) {
      std::cerr << "FAIL: expected one plan build and one hit, counted "
                << plans.misses << " misses and " << plans.hits << " hits\n";
      return 1;
    }
  }
  const double cold_med = median(cold_ms);
  const double hit_med = median(hit_ms);

  report::Table amortization({"request path", "median latency (ms)"});
  amortization.add_row({"cold (plan build + solve)",
                        report::fmt_fixed(cold_med, 3)});
  amortization.add_row({"plan-cache hit (solve only)",
                        report::fmt_fixed(hit_med, 3)});
  amortization.add_row(
      {"setup amortized away",
       report::fmt_fixed(cold_med - hit_med, 3)});
  amortization.print(std::cout);
  std::cout << "plan_cache_speedup x" << report::fmt_fixed(
                   hit_med > 0.0 ? cold_med / hit_med : 0.0, 2)
            << '\n';
  if (hit_med >= cold_med) {
    std::cerr << "FAIL: plan-cache hit latency is not below cold setup\n";
    return 1;
  }

  // ---- Part 2: requests/sec under concurrency ----------------------
  report::Table throughput(
      {"workers", "batching", "wall (ms)", "requests/s", "batches"});
  for (const index_t workers : {index_t{1}, index_t{2}, index_t{4}}) {
    for (const bool batching : {false, true}) {
      service::ServiceOptions so;
      so.num_workers = workers;
      so.queue_capacity = requests + 1;
      so.batching = batching;
      service::SolveService svc(so);
      // Prewarm so every timed request is a cache hit.
      (void)svc.solve(make_request(a, 1, 0));

      const auto t0 = Clock::now();
      std::vector<std::shared_ptr<service::Ticket>> tickets;
      tickets.reserve(requests);
      for (std::size_t k = 0; k < requests; ++k) {
        tickets.push_back(svc.submit(make_request(a, iters, k)));
      }
      for (const auto& t : tickets) {
        if (t->wait().outcome != service::RequestOutcome::kSolved) {
          std::cerr << "burst request failed: " << t->wait().error << '\n';
          return 1;
        }
      }
      const double wall = ms_since(t0);
      throughput.add_row(
          {report::fmt_int(workers), batching ? "on" : "off",
           report::fmt_fixed(wall, 1),
           report::fmt_fixed(1000.0 * static_cast<double>(requests) / wall, 1),
           report::fmt_int(static_cast<long long>(svc.stats().batches))});
    }
  }
  throughput.print(std::cout);
  return 0;
}
