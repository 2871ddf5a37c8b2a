#pragma once

#include <vector>

#include "resilience/recovery.hpp"
#include "sparse/types.hpp"

/// \file silent_error.hpp
/// Silent-error (SDC) injection and detection — the closing thought of
/// the paper's Section 4.5: "a convergence delay or non-converging
/// sequence of solution approximations indicates that a silent error
/// has occurred ... asynchronous methods can be used to detect silent
/// errors." A bit-flip-style corruption is injected into the iterate by
/// a FaultScenario event (FaultScenario::corrupt_iterate, run through
/// block_async_solve) and detected here from the residual history
/// alone.

namespace bars {

/// Residual-history anomaly detector. A healthy relaxation run
/// contracts every iteration by roughly its asymptotic factor; a silent
/// corruption appears as a residual *jump* (ratio >> 1) or a long
/// stagnation. Both thresholds are relative to the recent contraction
/// trend, so no a-priori rate knowledge is needed.
struct SilentErrorReport {
  bool detected = false;
  index_t at_iteration = -1;   ///< first anomalous history index
  value_t jump_ratio = 0.0;    ///< residual ratio at the anomaly
};

/// Scan a residual history for corruption signatures. Robust to
/// degenerate inputs: empty/one-entry histories, histories already at
/// the rounding floor, and warmup >= history.size() all return
/// detected = false. Implemented as a replay through
/// resilience::OnlineResidualDetector (the online mode the executors
/// run under BlockAsyncOptions::resilience), so batch and online
/// verdicts always agree.
[[nodiscard]] SilentErrorReport detect_silent_error(
    const std::vector<value_t>& history,
    const resilience::AnomalyOptions& opts = {});

}  // namespace bars
