/// Bit-identity probe: solves a fixed grid of block-async configurations
/// and prints one line per configuration, `<config> <hash>`, where the
/// hash is 64-bit FNV-1a over the iterate's bits, the iteration count,
/// the status, the final residual's bits, the per-block execution counts
/// and the max staleness. Two builds whose outputs are byte-identical
/// produced bit-identical solves on every configuration; `diff` of two
/// outputs names the configurations that changed.
///
/// Grid: Trefethen_2000 and fv_like(40, fv1-class) × block 64/448 ×
/// async-(1)/(5) × local Jacobi/Gauss-Seidel × overlap 0/3 × the three
/// schedule policies × {plain, corrupt_halo + fail_components} ×
/// backend scalar/auto, then AMC, DC and DK on 2 devices. "auto" falls
/// back to scalar where the SIMD backend cannot express the
/// configuration (Gauss-Seidel, overlap), so those lines repeat the
/// scalar hash by design.
///
/// Flags: --grid=full|smoke  (smoke: the 8 fv_like, block 64, async-(5),
///                            overlap 0, shuffled configurations; the
///                            ctest determinism check runs it twice)
///
/// Compare two builds: run each build's probe and `diff` the outputs.

#include "bench_common.hpp"

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/block_async.hpp"
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

std::uint64_t hash_result(const BlockAsyncResult& r) {
  Fnv1a h;
  h.bytes(r.solve.x.data(), r.solve.x.size() * sizeof(value_t));
  h.value(r.solve.iterations);
  h.value(static_cast<int>(r.solve.status));
  h.value(r.solve.final_residual);
  h.bytes(r.block_executions.data(),
          r.block_executions.size() * sizeof(index_t));
  h.value(r.max_staleness);
  return h.digest();
}

struct Problem {
  std::string name;
  Csr a;
};

void emit(const std::string& config, const Csr& a, const BlockAsyncOptions& o) {
  const Vector b = bench::unit_rhs(a.rows());
  const BlockAsyncResult r = block_async_solve(a, b, o);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash_result(r)));
  std::cout << config << ' ' << hex << '\n';
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

  if (!full) return 0;
  const std::vector<std::pair<const char*, gpusim::TransferScheme>> schemes = {
      {"amc", gpusim::TransferScheme::kAMC},
      {"dc", gpusim::TransferScheme::kDC},
      {"dk", gpusim::TransferScheme::kDK}};
  for (const Problem& p : problems) {
    for (const index_t k : ks) {
      for (const auto& [sname, scheme] : schemes) {
        BlockAsyncOptions o = base_options();
        o.block_size = 64;
        o.local_iters = k;
        o.num_devices = 2;
        o.scheme = scheme;
        emit(p.name + " b64 k" + std::to_string(k) + " 2dev " + sname, p.a, o);
      }
    }
  }
  return 0;
}
