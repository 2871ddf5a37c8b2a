#include "core/silent_error.hpp"

namespace bars {

resilience::AnomalyOptions to_anomaly_options(const DetectorOptions& opts) {
  resilience::AnomalyOptions a;
  a.jump_factor = opts.jump_factor;
  a.stall_window = opts.stall_window;
  a.stall_factor = opts.stall_factor;
  a.floor = opts.floor;
  a.warmup = opts.warmup;
  return a;
}

resilience::OnlineResidualDetector make_online_detector(
    const DetectorOptions& opts) {
  return resilience::OnlineResidualDetector(to_anomaly_options(opts));
}

SilentErrorReport detect_silent_error(const std::vector<value_t>& history,
                                      const DetectorOptions& opts) {
  SilentErrorReport rep;
  if (history.size() < 2) return rep;
  resilience::OnlineResidualDetector detector = make_online_detector(opts);
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
