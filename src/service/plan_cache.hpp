#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "common/annotations.hpp"
#include "sparse/csr.hpp"

/// \file plan_cache.hpp
/// The solve-plan cache: amortizes per-matrix setup across requests.
///
/// A *plan* is everything a block-async solve computes before its first
/// global iteration that depends only on the matrix and the partition
/// config — never on the right-hand side: the row partition, the
/// per-block halo lists / local-global splits / diagonal factors (all
/// inside the backend's BlockSweepKernel), and the kernel's
/// construction-sized scratch arenas.
/// BlockSweepKernel::set_rhs repoints the RHS without rebuilding any of
/// it, which is what makes one plan serve many requests and multi-RHS
/// batches.
///
/// Keying and eviction (docs/SERVICE.md has the full contract):
///   key   = (matrix fingerprint, block_size, local_iters, backend)
///   evict = least-recently-used once `capacity` distinct plans exist.
/// Plans are handed out as shared_ptr, so eviction never destroys a
/// plan a worker is still solving with.

namespace bars::service {

/// Partition/sweep configuration a plan is built for. Requests with a
/// different config on the same matrix get a distinct plan (the kernel
/// analysis depends on these).
struct PlanConfig {
  index_t block_size = 448;
  index_t local_iters = 5;
  /// Compute backend the kernel is built with (docs/BACKENDS.md).
  /// Part of the cache key: backends differ in memory layout and FP
  /// rounding, so a plan built for one backend is never served to a
  /// request asking for another.
  std::string backend = "scalar";
  friend bool operator==(const PlanConfig&, const PlanConfig&) = default;
};

/// One cached per-matrix setup. Workers must hold `mu` while using
/// `kernel` (set_rhs repoints shared state) — the cache itself never
/// touches the kernel after construction.
struct SolvePlan {
  std::uint64_t fingerprint = 0;
  PlanConfig config{};
  /// The service solves against this owned copy, so a plan (and any
  /// batch riding on it) never dangles when the submitter's matrix
  /// goes away.
  Csr matrix;
  /// Zero vector the kernel is bound to at construction; every request
  /// repoints the kernel at its own RHS via set_rhs(). Also reused as
  /// the default initial guess (x0 = 0) without reallocating.
  Vector seed_rhs;
  /// Null when kernel construction failed (e.g. zero diagonal): such
  /// matrices are still cached so repeat offenders fail fast, and the
  /// failure reason is kept in `kernel_error`.
  std::unique_ptr<backend::BlockSweepKernel> kernel;
  std::string kernel_error;
  /// Serializes kernel use across workers: set_rhs + the executor run
  /// must be one critical section per request/batch.
  common::Mutex mu;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t negative_expirations = 0;  ///< failed entries aged out
  std::size_t size = 0;              ///< plans currently resident
  std::size_t negative_entries = 0;  ///< resident plans with a failed kernel
  std::size_t capacity = 0;
};

struct PlanCacheOptions {
  /// Distinct plans kept resident (>= 1 enforced in the constructor).
  std::size_t capacity = 8;
  /// How long a *negative* entry (cached kernel-construction failure)
  /// stays authoritative. Within the TTL, repeat offenders fail fast
  /// without re-running the analysis; after it, the next acquire
  /// rebuilds from scratch — so a transient construction failure can
  /// never poison a matrix fingerprint forever. Zero or negative means
  /// negative entries never expire (the pre-TTL behavior).
  std::chrono::milliseconds negative_ttl{30000};
};

/// LRU map from (fingerprint, config) to shared SolvePlan. Thread-safe;
/// all members may be called concurrently.
class PlanCache {
 public:
  /// `capacity` >= 1 (throws otherwise).
  explicit PlanCache(std::size_t capacity);
  explicit PlanCache(PlanCacheOptions opts);

  /// Return the plan for (a, config), building and inserting it on a
  /// miss (evicting the least-recently-used entry when full). The
  /// returned pointer is never null; a plan whose kernel failed to
  /// build has plan->kernel == nullptr and a non-empty kernel_error.
  /// When `hit` is non-null it reports whether this call was served
  /// from cache. A cached failure past its negative TTL counts as a
  /// miss and is rebuilt. `inject_failure`, when non-null, makes any
  /// *build* this call performs produce a negative entry with that
  /// reason instead of running the analysis (cache hits are unaffected
  /// — an already-built plan does not retroactively fail). This is the
  /// hook fault injection uses to simulate plan-construction failure
  /// bursts (resilience/service_faults.hpp).
  [[nodiscard]] std::shared_ptr<SolvePlan> acquire(
      const Csr& a, const PlanConfig& config, bool* hit = nullptr,
      const char* inject_failure = nullptr);

  /// acquire() keyed by a fingerprint the caller already holds, so a
  /// request pays for one pass over A, not two: SolveService hashes at
  /// submit and passes that key here. `fingerprint` must be
  /// matrix_fingerprint(a); the cache does not recompute it, and a
  /// wrong key would file (and later serve) a's plan under another
  /// matrix's name. The unkeyed form delegates here.
  [[nodiscard]] std::shared_ptr<SolvePlan> acquire(
      std::uint64_t fingerprint, const Csr& a, const PlanConfig& config,
      bool* hit = nullptr, const char* inject_failure = nullptr);

  /// Like acquire() but never builds: null on miss, and the LRU order
  /// is untouched (peeking is not a use).
  [[nodiscard]] std::shared_ptr<SolvePlan> peek(std::uint64_t fingerprint,
                                                const PlanConfig& config) const;

  [[nodiscard]] PlanCacheStats stats() const;

  /// Drop every cached plan (in-flight shared_ptrs stay valid).
  void clear();

 private:
  using Clock = std::chrono::steady_clock;

  struct Key {
    std::uint64_t fingerprint;
    PlanConfig config;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    std::shared_ptr<SolvePlan> plan;
    std::list<Key>::iterator lru_pos;
    /// Negative entries only: when the cached failure stops being
    /// authoritative. max() for positive entries (never expires).
    Clock::time_point expires_at = Clock::time_point::max();
  };

  using Map = std::unordered_map<Key, Entry, KeyHash>;

  void erase_entry(Map::iterator it) BARS_REQUIRES(mu_);

  PlanCacheOptions opts_;
  mutable common::Mutex mu_;
  std::list<Key> lru_ BARS_GUARDED_BY(mu_);  ///< front = most recent
  Map map_ BARS_GUARDED_BY(mu_);
  std::uint64_t hits_ BARS_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ BARS_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ BARS_GUARDED_BY(mu_) = 0;
  std::uint64_t negative_expirations_ BARS_GUARDED_BY(mu_) = 0;
  std::size_t negative_entries_ BARS_GUARDED_BY(mu_) = 0;
};

}  // namespace bars::service
