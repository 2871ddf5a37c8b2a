// Workload inputs, generated from the workload seed, and the benchmark's
// own output checks.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "matrices/generators.hpp"
#include "matrices/paper_suite.hpp"
#include "sparse/matrix_market.hpp"

namespace perfbench {

namespace {

/// Uniform(-1, 1) right-hand side.
Vector random_rhs(std::mt19937_64& rng, index_t n) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Vector b(static_cast<std::size_t>(n));
  for (double& v : b) v = u(rng);
  return b;
}

// Churn: a synthetic stress shape, not a recorded request mix (the
// repository has none). Distinct fv1-class matrices (Jacobi spectral radius
// drawn near fv1's 0.8541, so every matrix costs about the same to solve)
// against a plan cache of half as many entries, so that misses, builds and
// evictions are a steady share of every round.
constexpr std::size_t kChurnMatrices = 8;
// A 140 x 140 grid (twice fv1's 98 x 98 rows) makes a request about 25 ms,
// so a few milliseconds of thread wake-up or page-fault delay on a busy
// host move its tail half as much as on fv1's size.
constexpr index_t kChurnGrid = 140;
// One draw of the skewed mix: Zipf(1) counts over the ranks, fixed so every
// seed and every round has the same make-up; the seed picks which matrix
// holds which rank and the order of the requests.
constexpr std::size_t kChurnCounts[kChurnMatrices] = {24, 12, 8, 6, 5, 4, 3, 2};
// A round is this many independent shuffles of the 64 draws, so a run's
// miss pattern (and its tail) is not that of one order alone.
constexpr std::size_t kChurnOrders = 4;

}  // namespace

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   const std::string& dir) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
  Inputs in;
  std::size_t rhs_per_matrix = 0;

  const auto t0 = Clock::now();
  if (workload == "service-churn") {
    std::uniform_real_distribution<double> jitter(-0.002, 0.002);
    for (std::size_t m = 0; m < kChurnMatrices; ++m) {
      const double rho = 0.8541 + jitter(rng);
      in.names.push_back("fv1var" + std::to_string(m));
      in.matrices.push_back(
          bars::fv_like(kChurnGrid, bars::fv_reaction_for_rho(kChurnGrid, rho)));
    }
    rhs_per_matrix = 2;
  } else {
    in.names.push_back("Trefethen_20000");
    in.matrices.push_back(
        bars::make_paper_problem(bars::PaperMatrix::kTrefethen20000).matrix);
    // Iteration counts differ from one right-hand side to the next (by
    // up to a tenth at async-(5)); 32 of them keep a seed's median close to
    // every other seed's.
    rhs_per_matrix = 32;
  }
  for (const Csr& a : in.matrices) {
    std::vector<Vector> pool;
    for (std::size_t k = 0; k < rhs_per_matrix; ++k) {
      pool.push_back(random_rhs(rng, a.rows()));
    }
    in.rhs.push_back(std::move(pool));
  }

  if (workload == "service-churn") {
    std::vector<std::size_t> rank_to_matrix(kChurnMatrices);
    for (std::size_t m = 0; m < kChurnMatrices; ++m) rank_to_matrix[m] = m;
    std::shuffle(rank_to_matrix.begin(), rank_to_matrix.end(), rng);
    std::vector<Pair> draws;
    for (std::size_t r = 0; r < kChurnMatrices; ++r) {
      for (std::size_t k = 0; k < kChurnCounts[r]; ++k) {
        draws.push_back({rank_to_matrix[r], k % rhs_per_matrix});
      }
    }
    for (std::size_t o = 0; o < kChurnOrders; ++o) {
      std::shuffle(draws.begin(), draws.end(), rng);
      in.round.insert(in.round.end(), draws.begin(), draws.end());
    }
  } else {
    for (std::size_t k = 0; k < rhs_per_matrix; ++k) in.round.push_back({0, k});
  }
  in.generate_s = seconds_since(t0);

  std::filesystem::create_directories(dir);
  for (std::size_t m = 0; m < in.matrices.size(); ++m) {
    in.files.push_back(dir + "/" + in.names[m] + ".mtx");
    bars::write_matrix_market_file(in.files.back(), in.matrices[m]);
  }
  return in;
}

bool same_matrix(const Csr& a, const Csr& b) {
  const auto eq = [](auto x, auto y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         eq(a.row_ptr(), b.row_ptr()) && eq(a.col_idx(), b.col_idx()) &&
         eq(a.values(), b.values());
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double own_relative_residual(const Csr& a, const Vector& b, const Vector& x) {
  const auto ptr = a.row_ptr();
  const auto col = a.col_idx();
  const auto val = a.values();
  if (b.size() != static_cast<std::size_t>(a.rows()) || x.size() != b.size()) {
    return INFINITY;
  }
  long double rr = 0.0L, bb = 0.0L;
  for (index_t i = 0; i < a.rows(); ++i) {
    long double ax = 0.0L;
    for (index_t k = ptr[i]; k < ptr[i + 1]; ++k) {
      ax += static_cast<long double>(val[k]) * x[col[k]];
    }
    const long double r = b[i] - ax;
    rr += r * r;
    bb += static_cast<long double>(b[i]) * b[i];
  }
  return bb > 0.0L ? static_cast<double>(std::sqrt(rr / bb))
                   : static_cast<double>(std::sqrt(rr));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least p of them at or below.
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double iqr(std::vector<double> v) {
  return percentile(v, 0.75) - percentile(v, 0.25);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
