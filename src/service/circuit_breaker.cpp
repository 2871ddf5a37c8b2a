#include "service/circuit_breaker.hpp"

#include <algorithm>

#include "service/fingerprint.hpp"

namespace bars::service {

std::size_t CircuitBreaker::KeyHash::operator()(const Key& k) const noexcept {
  const index_t cfg[2] = {k.config.block_size, k.config.local_iters};
  return static_cast<std::size_t>(hash64(cfg, sizeof(cfg), k.fingerprint));
}

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions opts) : opts_(opts) {
  if (opts_.failure_threshold == 0) opts_.failure_threshold = 1;
  if (opts_.max_tracked == 0) opts_.max_tracked = 1;
}

void CircuitBreaker::refresh(Entry& e, Clock::time_point now) const {
  if (e.state == BreakerState::kOpen &&
      now - e.opened_at >= opts_.open_duration) {
    e.state = BreakerState::kHalfOpen;
    e.probe_in_flight = false;
  }
}

bool CircuitBreaker::allow(std::uint64_t fingerprint, const PlanConfig& config,
                           Clock::time_point now) {
  if (!opts_.enabled) return true;
  common::MutexLock lock(mu_);
  const Key key{fingerprint, config};
  auto it = map_.find(key);
  if (it == map_.end()) return true;  // untracked = closed
  Entry& e = it->second;
  e.touched = ++tick_;
  refresh(e, now);
  switch (e.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      ++rejections_;
      return false;
    case BreakerState::kHalfOpen:
      if (e.probe_in_flight) {
        // One probe at a time: the rest keep failing fast until the
        // in-flight probe delivers a verdict.
        ++rejections_;
        return false;
      }
      e.probe_in_flight = true;
      ++probes_;
      return true;
  }
  return true;
}

void CircuitBreaker::record_success(std::uint64_t fingerprint,
                                    const PlanConfig& config) {
  if (!opts_.enabled) return;
  common::MutexLock lock(mu_);
  auto it = map_.find(Key{fingerprint, config});
  if (it == map_.end()) return;
  Entry& e = it->second;
  e.touched = ++tick_;
  if (e.state == BreakerState::kHalfOpen) ++recoveries_;
  e.state = BreakerState::kClosed;
  e.consecutive_failures = 0;
  e.probe_in_flight = false;
}

void CircuitBreaker::record_failure(std::uint64_t fingerprint,
                                    const PlanConfig& config,
                                    Clock::time_point now) {
  if (!opts_.enabled) return;
  common::MutexLock lock(mu_);
  const Key key{fingerprint, config};
  auto it = map_.find(key);
  if (it == map_.end()) {
    prune();
    it = map_.emplace(key, Entry{}).first;
  }
  Entry& e = it->second;
  e.touched = ++tick_;
  refresh(e, now);
  if (e.state == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open for another window.
    e.state = BreakerState::kOpen;
    e.opened_at = now;
    e.probe_in_flight = false;
    ++trips_;
    return;
  }
  ++e.consecutive_failures;
  if (e.state == BreakerState::kClosed &&
      e.consecutive_failures >= opts_.failure_threshold) {
    e.state = BreakerState::kOpen;
    e.opened_at = now;
    ++trips_;
  }
}

void CircuitBreaker::release(std::uint64_t fingerprint,
                             const PlanConfig& config) {
  if (!opts_.enabled) return;
  common::MutexLock lock(mu_);
  auto it = map_.find(Key{fingerprint, config});
  if (it == map_.end()) return;
  it->second.probe_in_flight = false;
}

BreakerState CircuitBreaker::state(std::uint64_t fingerprint,
                                   const PlanConfig& config,
                                   Clock::time_point now) const {
  common::MutexLock lock(mu_);
  const auto it = map_.find(Key{fingerprint, config});
  if (it == map_.end()) return BreakerState::kClosed;
  Entry e = it->second;  // copy: state() is const, refresh is a view
  refresh(e, now);
  return e.state;
}

CircuitBreakerStats CircuitBreaker::stats() const {
  common::MutexLock lock(mu_);
  CircuitBreakerStats out;
  out.trips = trips_;
  out.rejections = rejections_;
  out.probes = probes_;
  out.recoveries = recoveries_;
  out.tracked = map_.size();
  for (const auto& [key, e] : map_) {
    if (e.state == BreakerState::kOpen) ++out.open;
  }
  return out;
}

void CircuitBreaker::prune() {
  if (map_.size() < opts_.max_tracked) return;
  // Evict the least-recently-touched closed entry; open and half-open
  // breakers are load-bearing and stay.
  auto victim = map_.end();
  std::uint64_t oldest = UINT64_MAX;
  for (auto it = map_.begin(); it != map_.end(); ++it) {
    if (it->second.state == BreakerState::kClosed &&
        it->second.touched < oldest) {
      oldest = it->second.touched;
      victim = it;
    }
  }
  if (victim != map_.end()) map_.erase(victim);
}

}  // namespace bars::service
