#include "service/plan_cache.hpp"

#include <stdexcept>
#include <utility>

#include "backend/registry.hpp"
#include "service/fingerprint.hpp"
#include "sparse/partition.hpp"

namespace bars::service {

std::size_t PlanCache::KeyHash::operator()(const Key& k) const noexcept {
  // Fold the config into the matrix fingerprint with the same hash
  // primitive the fingerprint itself uses. The backend name is part of
  // the key: a plan built for one backend must never hash-collide into
  // serving another (equality would still reject it; keying it keeps
  // the buckets honest).
  const index_t cfg[2] = {k.config.block_size, k.config.local_iters};
  const std::uint64_t seed = hash64(cfg, sizeof(cfg), k.fingerprint);
  return static_cast<std::size_t>(
      hash64(k.config.backend.data(), k.config.backend.size(), seed));
}

PlanCache::PlanCache(std::size_t capacity)
    : PlanCache(PlanCacheOptions{capacity, PlanCacheOptions{}.negative_ttl}) {}

PlanCache::PlanCache(PlanCacheOptions opts) : opts_(opts) {
  if (opts_.capacity == 0) {
    throw std::invalid_argument("PlanCache: capacity must be >= 1");
  }
}

void PlanCache::erase_entry(Map::iterator it) {
  if (it->second.plan->kernel == nullptr) --negative_entries_;
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
}

std::shared_ptr<SolvePlan> PlanCache::acquire(const Csr& a,
                                              const PlanConfig& config,
                                              bool* hit,
                                              const char* inject_failure) {
  return acquire(matrix_fingerprint(a), a, config, hit, inject_failure);
}

std::shared_ptr<SolvePlan> PlanCache::acquire(std::uint64_t fingerprint,
                                              const Csr& a,
                                              const PlanConfig& config,
                                              bool* hit,
                                              const char* inject_failure) {
  const Key key{fingerprint, config};
  const Clock::time_point now = Clock::now();
  common::MutexLock lock(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    if (now >= it->second.expires_at) {
      // A cached construction failure has aged out: forget it and
      // rebuild below, so a transient failure cannot poison the
      // fingerprint past the TTL.
      ++negative_expirations_;
      erase_entry(it);
    } else {
      ++hits_;
      if (hit != nullptr) *hit = true;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.plan;
    }
  }
  ++misses_;
  if (hit != nullptr) *hit = false;

  // Build under the lock: misses are the rare path by design, and
  // holding the lock guarantees no two workers duplicate the same
  // expensive analysis.
  auto plan = std::make_shared<SolvePlan>();
  plan->fingerprint = key.fingerprint;
  plan->config = config;
  if (inject_failure != nullptr) {
    plan->kernel = nullptr;
    plan->kernel_error = inject_failure;
  } else {
    plan->matrix = a;
    plan->seed_rhs.assign(static_cast<std::size_t>(a.rows()), 0.0);
    RowPartition partition = RowPartition::uniform(a.rows(), config.block_size);
    try {
      // Unknown backend names throw std::invalid_argument here and
      // become negative entries like any other construction failure.
      plan->kernel =
          backend::build_kernel(config.backend, plan->matrix, plan->seed_rhs,
                                std::move(partition), {config.local_iters});
    } catch (const std::exception& e) {
      plan->kernel = nullptr;
      plan->kernel_error = e.what();
    }
  }

  if (map_.size() >= opts_.capacity) {
    const auto victim = map_.find(lru_.back());
    erase_entry(victim);
    ++evictions_;
  }
  lru_.push_front(key);
  Entry entry{plan, lru_.begin(), Clock::time_point::max()};
  if (plan->kernel == nullptr) {
    ++negative_entries_;
    if (opts_.negative_ttl.count() > 0) {
      entry.expires_at = now + opts_.negative_ttl;
    }
  }
  map_.emplace(key, entry);
  return plan;
}

std::shared_ptr<SolvePlan> PlanCache::peek(std::uint64_t fingerprint,
                                           const PlanConfig& config) const {
  common::MutexLock lock(mu_);
  const auto it = map_.find(Key{fingerprint, config});
  if (it == map_.end()) return nullptr;
  if (Clock::now() >= it->second.expires_at) return nullptr;  // aged out
  return it->second.plan;
}

PlanCacheStats PlanCache::stats() const {
  common::MutexLock lock(mu_);
  PlanCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.negative_expirations = negative_expirations_;
  out.size = map_.size();
  out.negative_entries = negative_entries_;
  out.capacity = opts_.capacity;
  return out;
}

void PlanCache::clear() {
  common::MutexLock lock(mu_);
  map_.clear();
  lru_.clear();
  negative_entries_ = 0;
}

}  // namespace bars::service
