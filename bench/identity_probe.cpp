/// Bit-identity probe: solves a fixed grid of configurations and prints
/// one line per configuration, `<config> <hash>`, where the hash is
/// 64-bit FNV-1a over the iterate's bits, the iteration count, the
/// status, the final residual's bits, the residual and time histories,
/// and for block-async runs the per-block execution counts, the max
/// staleness, the virtual time, the transfer traffic and counts, and the
/// resilience report. Two builds whose outputs are byte-identical produced
/// bit-identical solves on every configuration; `diff` of two outputs
/// names the configurations that changed.
///
/// Grid:
///  - block-async: Trefethen_2000, fv_like(40, fv1-class) and a
///    Trefethen_2000 with perturbed off-diagonals × block 64/448 ×
///    async-(1)/(5) × local Jacobi/Gauss-Seidel × overlap 0/3 × the
///    three schedule policies × {plain, corrupt_halo + fail_components}
///    × backend scalar/auto, then AMC, DC and DK on 2, 3 and 4 devices,
///    and per matrix one corrupt_iterate line and one line under the
///    default resilience policy (corrupt_iterate + fail_components). "auto"
///    falls back to scalar where the SIMD backend cannot express the
///    configuration (Gauss-Seidel, overlap), so those lines repeat the
///    scalar hash by design. On the first two matrices every
///    off-diagonal product is exact; the perturbed one's are not, so
///    only its "auto" lines test the SIMD kernel's FMA path.
///  - every registry solver except the nondeterministic thread-async,
///    on fv_like(15) (which the multigrid entries need), converging and
///    on a splitting that diverges;
///  - nonlinear_block_async_solve and nonlinear_jacobi_solve with a
///    cubic nonlinearity.
///
/// Flags: --grid=full|smoke  (smoke: the 8 fv_like, block 64, async-(5),
///                            overlap 0, shuffled block-async
///                            configurations plus the registry and
///                            nonlinear lines; the ctest determinism
///                            check runs it twice)
///
/// Compare two builds: run each build's probe and `diff` the outputs.

#include "bench_common.hpp"

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/block_async.hpp"
#include "core/nonlinear.hpp"
#include "core/registry.hpp"
#include "matrices/generators.hpp"

using namespace bars;

namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ c[i]) * 0x100000001b3ULL;
    }
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <class T>
void hash_vector(Fnv1a& h, const std::vector<T>& v) {
  h.value(v.size());
  h.bytes(v.data(), v.size() * sizeof(T));
}

void hash_solve(Fnv1a& h, const SolveResult& r) {
  hash_vector(h, r.x);
  h.value(r.iterations);
  h.value(static_cast<int>(r.status));
  h.value(r.final_residual);
  hash_vector(h, r.residual_history);
  hash_vector(h, r.time_history);
}

void print(const std::string& config, const Fnv1a& h) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  std::cout << config << ' ' << hex << '\n';
}

struct Problem {
  std::string name;
  Csr a;
};

void hash_report(Fnv1a& h, const resilience::Report& r) {
  h.value(r.checkpoints_saved);
  h.value(r.detections);
  hash_vector(h, r.detection_iterations);
  h.value(r.rollbacks);
  h.value(r.damped_restarts);
  h.value(r.watchdog_reassignments);
  h.value(r.components_reassigned);
  hash_vector(h, r.stalled_blocks);
  h.value(r.halo_corruptions);
  h.value(r.transfer_retries);
}

void emit(const std::string& config, const Csr& a, const BlockAsyncOptions& o) {
  const Vector b = bench::unit_rhs(a.rows());
  const BlockAsyncResult r = block_async_solve(a, b, o);
  Fnv1a h;
  hash_solve(h, r.solve);
  hash_vector(h, r.block_executions);
  h.value(r.max_staleness);
  h.value(r.virtual_time);
  h.value(r.bytes_host_device);
  h.value(r.bytes_device_device);
  h.value(r.num_transfers);
  hash_report(h, r.resilience);
  print(config, h);
}

/// Trefethen_n with every off-diagonal scaled by a factor in [0.8, 1.2)
/// drawn from its position: the products a_ij x_j are no longer exact.
Csr perturbed_trefethen(index_t n) {
  const Csr t = trefethen(n);
  std::vector<value_t> vals(t.values().begin(), t.values().end());
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = t.row_ptr()[i]; k < t.row_ptr()[i + 1]; ++k) {
      const index_t j = t.col_idx()[k];
      if (j == i) continue;
      vals[k] *= 0.8 + 0.4 * static_cast<value_t>((i * 7919 + j * 104729) %
                                                   1000) / 1000.0;
    }
  }
  return {n,
          n,
          {t.row_ptr().begin(), t.row_ptr().end()},
          {t.col_idx().begin(), t.col_idx().end()},
          std::move(vals)};
}

/// Every registry solver but thread-async (its schedule is the host's),
/// on a system where all of them converge and on one where the
/// splitting diverges. A solver that rejects the system prints the
/// exception instead of a hash.
void emit_registry() {
  const std::vector<std::pair<const char*, Csr>> systems = {
      {"fv15", fv_like(15, 0.8)}, {"fv15neg", fv_like(15, -1.5)}};
  for (const auto& [sys, a] : systems) {
    const Vector b = bench::unit_rhs(a.rows());
    RegistrySolveOptions o;
    o.solve.max_iters = 400;
    o.solve.tol = 1e-10;
    o.solve.divergence_limit = 1e3;
    o.block_size = 32;
    o.local_iters = 2;
    for (const std::string& name : solver_names()) {
      if (name == "thread-async") continue;
      const std::string config = std::string("registry ") + sys + " " + name;
      try {
        Fnv1a h;
        hash_solve(h, find_solver(name)(a, b, o));
        print(config, h);
      } catch (const std::exception& e) {
        std::cout << config << " threw " << e.what() << '\n';
      }
    }
  }
}

void emit_nonlinear() {
  const Csr a = fv_like(15, 0.8);
  const Vector b = bench::unit_rhs(a.rows());
  const DiagonalNonlinearity phi = cubic_nonlinearity(0.5);
  for (const index_t block : {16, 64}) {
    for (const index_t k : {1, 3}) {
      for (const auto& [pname, policy] :
           {std::pair{"rr", gpusim::SchedulePolicy::kRoundRobin},
            std::pair{"jit", gpusim::SchedulePolicy::kJittered},
            std::pair{"shuf", gpusim::SchedulePolicy::kShuffled}}) {
        NonlinearAsyncOptions o;
        o.solve.max_iters = 400;
        o.solve.tol = 1e-10;
        o.block_size = block;
        o.local_iters = k;
        o.policy = policy;
        const NonlinearAsyncResult r =
            nonlinear_block_async_solve(a, b, phi, o);
        Fnv1a h;
        hash_solve(h, r.solve);
        hash_vector(h, r.block_executions);
        print("nonlinear-block-async fv15 b" + std::to_string(block) + " k" +
                  std::to_string(k) + " " + pname,
              h);
      }
    }
  }
  SolveOptions so;
  so.max_iters = 400;
  so.tol = 1e-10;
  Fnv1a h;
  hash_solve(h, nonlinear_jacobi_solve(a, b, phi, so));
  print("nonlinear-jacobi fv15", h);
}

BlockAsyncOptions base_options() {
  BlockAsyncOptions o;
  o.solve.max_iters = 150;
  o.solve.tol = 1e-10;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const report::Args args(argc, argv);
  if (const int rc = bench::require_known_flags(args, "identity_probe",
                                                {"grid"})) {
    return rc;
  }
  const std::string grid = args.get_string("grid", "full");
  if (grid != "full" && grid != "smoke") {
    std::cerr << "identity_probe: --grid must be full or smoke\n";
    return 2;
  }
  const bool full = grid == "full";

  std::vector<Problem> problems;
  if (full) problems.push_back({"trefethen2000", trefethen(2000)});
  problems.push_back({"fv40", fv_like(40, fv_reaction_for_rho(40, 0.8541))});
  if (full) problems.push_back({"trefethen2000p", perturbed_trefethen(2000)});

  const std::vector<index_t> blocks =
      full ? std::vector<index_t>{64, 448} : std::vector<index_t>{64};
  const std::vector<index_t> ks =
      full ? std::vector<index_t>{1, 5} : std::vector<index_t>{5};
  const std::vector<LocalSweep> sweeps = {LocalSweep::kJacobi,
                                          LocalSweep::kGaussSeidel};
  const std::vector<index_t> overlaps =
      full ? std::vector<index_t>{0, 3} : std::vector<index_t>{0};
  const std::vector<std::pair<const char*, gpusim::SchedulePolicy>> policies =
      full ? std::vector<std::pair<const char*, gpusim::SchedulePolicy>>{
                 {"rr", gpusim::SchedulePolicy::kRoundRobin},
                 {"jit", gpusim::SchedulePolicy::kJittered},
                 {"shuf", gpusim::SchedulePolicy::kShuffled}}
           : std::vector<std::pair<const char*, gpusim::SchedulePolicy>>{
                 {"shuf", gpusim::SchedulePolicy::kShuffled}};

  for (const Problem& p : problems) {
    for (const index_t block : blocks) {
      for (const index_t k : ks) {
        for (const LocalSweep sweep : sweeps) {
          for (const index_t overlap : overlaps) {
            for (const auto& [pname, policy] : policies) {
              for (const bool faulted : {false, true}) {
                for (const char* backend : {"scalar", "auto"}) {
                  BlockAsyncOptions o = base_options();
                  o.block_size = block;
                  o.local_iters = k;
                  o.local_sweep = sweep;
                  o.overlap = overlap;
                  o.policy = policy;
                  o.backend = backend;
                  if (faulted) {
                    o.scenario = resilience::FaultScenario{}
                                     .corrupt_halo(3, 4, 1e3)
                                     .fail_components(6, 0.1, 10);
                  }
                  const std::string config =
                      p.name + " b" + std::to_string(block) + " k" +
                      std::to_string(k) +
                      (sweep == LocalSweep::kJacobi ? " jac" : " gs") +
                      " ov" + std::to_string(overlap) + " " + pname +
                      (faulted ? " faults " : " plain ") + backend;
                  emit(config, p.a, o);
                }
              }
            }
          }
        }
      }
    }
  }

  emit_registry();
  emit_nonlinear();

  if (!full) return 0;
  const std::vector<std::pair<const char*, gpusim::TransferScheme>> schemes = {
      {"amc", gpusim::TransferScheme::kAMC},
      {"dc", gpusim::TransferScheme::kDC},
      {"dk", gpusim::TransferScheme::kDK}};
  for (const Problem& p : problems) {
    for (const index_t devices : {2, 3, 4}) {
      for (const index_t k : ks) {
        for (const auto& [sname, scheme] : schemes) {
          BlockAsyncOptions o = base_options();
          o.block_size = 64;
          o.local_iters = k;
          o.num_devices = devices;
          o.scheme = scheme;
          emit(p.name + " b64 k" + std::to_string(k) + " " +
                   std::to_string(devices) + "dev " + sname,
               p.a, o);
        }
      }
    }
  }
  for (const Problem& p : problems) {
    BlockAsyncOptions o = base_options();
    o.block_size = 64;
    o.local_iters = 5;
    o.scenario = resilience::FaultScenario{}.corrupt_iterate(10, 1e6);
    emit(p.name + " b64 k5 corrupt_iterate", p.a, o);
    o.scenario->fail_components(20, 0.1, 10);
    o.resilience = resilience::Policy{};
    emit(p.name + " b64 k5 corrupt_iterate+fail resilience", p.a, o);
  }
  return 0;
}
