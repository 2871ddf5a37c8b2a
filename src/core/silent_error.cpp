#include "core/silent_error.hpp"

namespace bars {

SilentErrorReport detect_silent_error(const std::vector<value_t>& history,
                                      const resilience::AnomalyOptions& opts) {
  SilentErrorReport rep;
  if (history.size() < 2) return rep;
  resilience::OnlineResidualDetector detector(opts);
  for (value_t r : history) {
    if (const auto anomaly = detector.push(r)) {
      rep.detected = true;
      rep.at_iteration = anomaly->at_iteration;
      rep.jump_ratio = anomaly->jump_ratio;
      return rep;
    }
  }
  return rep;
}

}  // namespace bars
