#include "resilience/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace bars::resilience {

FaultScenario& FaultScenario::fail_components(
    index_t at, value_t fraction, std::optional<index_t> recover_after,
    std::uint64_t seed) {
  FaultEvent e;
  e.kind = FaultKind::kComponentFailure;
  e.at = at;
  e.fraction = fraction;
  e.duration = recover_after;
  e.seed = seed;
  events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::corrupt_halo(index_t at, index_t duration,
                                           value_t magnitude,
                                           value_t probability,
                                           std::uint64_t seed) {
  FaultEvent e;
  e.kind = FaultKind::kHaloCorruption;
  e.at = at;
  e.duration = duration;
  e.magnitude = magnitude;
  e.probability = probability;
  e.seed = seed;
  events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::drop_device(index_t at, index_t device,
                                          std::optional<index_t> rejoin_after) {
  FaultEvent e;
  e.kind = FaultKind::kDeviceDropout;
  e.at = at;
  e.device = device;
  e.duration = rejoin_after;
  events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::fail_link(index_t at, index_t device,
                                        index_t duration) {
  FaultEvent e;
  e.kind = FaultKind::kLinkFailure;
  e.at = at;
  e.device = device;
  e.duration = duration;
  events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::corrupt_iterate(index_t at, value_t magnitude,
                                              index_t component,
                                              std::uint64_t seed) {
  FaultEvent e;
  e.kind = FaultKind::kIterateCorruption;
  e.at = at;
  e.magnitude = magnitude;
  e.component = component;
  e.seed = seed;
  events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::stall_workers(double at_s, double duration_s,
                                            double stall_s) {
  ServiceFaultEvent e;
  e.kind = ServiceFaultKind::kWorkerStall;
  e.at_seconds = at_s;
  e.duration_seconds = duration_s;
  e.stall_seconds = stall_s;
  service_events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::fail_plan_builds(double at_s,
                                               double duration_s) {
  ServiceFaultEvent e;
  e.kind = ServiceFaultKind::kPlanFailureBurst;
  e.at_seconds = at_s;
  e.duration_seconds = duration_s;
  service_events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::flood_queue(double at_s, double duration_s,
                                          double factor) {
  ServiceFaultEvent e;
  e.kind = ServiceFaultKind::kQueueFlood;
  e.at_seconds = at_s;
  e.duration_seconds = duration_s;
  e.flood_factor = factor;
  service_events.push_back(e);
  return *this;
}

FaultScenario& FaultScenario::storm_deadlines(double at_s, double duration_s,
                                              double deadline_ms) {
  ServiceFaultEvent e;
  e.kind = ServiceFaultKind::kDeadlineStorm;
  e.at_seconds = at_s;
  e.duration_seconds = duration_s;
  e.storm_deadline_ms = deadline_ms;
  service_events.push_back(e);
  return *this;
}

ScenarioTimeline::ScenarioTimeline(FaultScenario scenario, index_t num_rows,
                                   index_t num_devices)
    : n_(num_rows), num_devices_(num_devices) {
  states_.reserve(scenario.events.size());
  for (const FaultEvent& e : scenario.events) {
    EventState& s = states_.emplace_back(e);
    if (e.kind != FaultKind::kIterateCorruption) continue;
    if (e.at < 1) {
      throw std::invalid_argument("corrupt_iterate: at must be >= 1");
    }
    if (e.component >= num_rows || num_rows == 0) {
      throw std::invalid_argument("corrupt_iterate: component out of range");
    }
    if (e.component < 0) s.event.component = s.rng.uniform_int(0, n_ - 1);
  }
}

void ScenarioTimeline::advance(index_t k) {
  bool mask_dirty = false;
  for (EventState& s : states_) {
    if (!s.done && !s.active && k >= s.event.at) {
      s.active = true;
      if (s.event.kind == FaultKind::kComponentFailure) {
        s.mask.assign(static_cast<std::size_t>(n_), 0);
        Rng fault_rng(s.event.seed);
        const auto want = static_cast<index_t>(
            s.event.fraction * static_cast<value_t>(n_) + 0.5);
        const index_t count = std::clamp<index_t>(want, 0, n_);
        for (index_t i : fault_rng.sample_without_replacement(n_, count)) {
          s.mask[static_cast<std::size_t>(i)] = 1;
        }
        mask_dirty = true;
      }
    }
    if (s.active && s.event.duration &&
        k >= s.event.at + *s.event.duration) {
      s.active = false;
      s.done = true;  // components reassigned / window over
      if (s.event.kind == FaultKind::kComponentFailure) mask_dirty = true;
    }
  }
  if (mask_dirty) rebuild_component_mask();
}

void ScenarioTimeline::rebuild_component_mask() {
  combined_mask_.assign(static_cast<std::size_t>(n_), 0);
  any_failed_ = false;
  for (const EventState& s : states_) {
    if (!s.active || s.event.kind != FaultKind::kComponentFailure) continue;
    for (std::size_t i = 0; i < s.mask.size(); ++i) {
      if (s.mask[i]) {
        combined_mask_[i] = 1;
        any_failed_ = true;
      }
    }
  }
}

const std::vector<std::uint8_t>* ScenarioTimeline::component_mask() const {
  return any_failed_ ? &combined_mask_ : nullptr;
}

bool ScenarioTimeline::any_component_failed() const { return any_failed_; }

index_t ScenarioTimeline::reassign_failed_components() {
  if (!any_failed_) return 0;
  index_t freed = 0;
  for (std::uint8_t m : combined_mask_) freed += m;
  for (EventState& s : states_) {
    if (s.active && s.event.kind == FaultKind::kComponentFailure) {
      s.active = false;
      s.done = true;
    }
  }
  rebuild_component_mask();
  return freed;
}

bool ScenarioTimeline::halo_corruption_active() const {
  for (const EventState& s : states_) {
    if (s.active && s.event.kind == FaultKind::kHaloCorruption) return true;
  }
  return false;
}

void ScenarioTimeline::maybe_corrupt_halo(Vector& snapshot) {
  if (snapshot.empty()) return;
  for (EventState& s : states_) {
    if (!s.active || s.event.kind != FaultKind::kHaloCorruption) continue;
    if (s.rng.uniform() < s.event.probability) {
      const auto at = static_cast<std::size_t>(s.rng.uniform_int(
          0, static_cast<index_t>(snapshot.size()) - 1));
      snapshot[at] = s.event.magnitude;
      ++corruptions_;
    }
  }
}

void ScenarioTimeline::corrupt_iterate(index_t k, Vector& x) const {
  for (const EventState& s : states_) {
    if (s.event.kind == FaultKind::kIterateCorruption && s.event.at == k) {
      x[static_cast<std::size_t>(s.event.component)] = s.event.magnitude;
    }
  }
}

bool ScenarioTimeline::device_down(index_t device) const {
  for (const EventState& s : states_) {
    if (s.active && s.event.kind == FaultKind::kDeviceDropout &&
        s.event.device == device) {
      return true;
    }
  }
  return false;
}

bool ScenarioTimeline::link_down(index_t device) const {
  for (const EventState& s : states_) {
    if (s.active && s.event.kind == FaultKind::kLinkFailure &&
        s.event.device == device) {
      return true;
    }
  }
  return false;
}

}  // namespace bars::resilience
