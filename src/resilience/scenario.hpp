#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sparse/types.hpp"
#include "stats/rng.hpp"

/// \file scenario.hpp
/// Composable fault scenarios — the generalization of the paper's
/// Section 4.5 single-breakdown experiment to a *timeline* of
/// injectable events. A FaultScenario is a declarative script (which
/// failure, when, for how long); a ScenarioTimeline is its runtime
/// engine, advanced once per global iteration by the executors. The
/// split keeps scenarios serializable/composable while the executors
/// only ever ask simple questions ("which components are frozen now?",
/// "is device 2 down?", "is this link up?").

namespace bars::resilience {

/// The injectable failure classes.
enum class FaultKind {
  /// A fraction of the solution components stops being updated (their
  /// cores "break", paper Section 4.5). Optional recovery reassigns
  /// them to healthy cores after `duration` global iterations.
  kComponentFailure,
  /// Transient corruption of halo reads: during the window, each halo
  /// snapshot is overwritten with `magnitude` at one random entry with
  /// probability `probability` (models flaky remote memory).
  kHaloCorruption,
  /// Multi-GPU only: the device stops launching blocks at `at` and
  /// rejoins (with a refreshed view of the iterate) after `duration`.
  kDeviceDropout,
  /// Multi-GPU only: the device's transfer link fails for `duration`
  /// iterations; sweep-end transfers are retried with exponential
  /// backoff and accounted in the resilience report.
  kLinkFailure,
  /// Silent data corruption (the idea that closes Section 4.5): at
  /// global-iteration boundary `at`, before that boundary's residual
  /// is taken, x[component] is overwritten with `magnitude` — in the
  /// canonical iterate and in every device's view of it. Nothing
  /// signals the error; the solver sees only its effect on the
  /// residual (see core/silent_error.hpp for the detector).
  kIterateCorruption,
};

/// Service-level failure classes — faults against the *serving* layer
/// (SolveService) rather than the solver's iteration space. They live
/// on a wall-clock timeline (seconds since injector start) because the
/// service is a wall-clock system; ScenarioTimeline ignores them, and
/// ServiceFaultInjector (resilience/service_faults.hpp) is their
/// runtime engine.
enum class ServiceFaultKind {
  /// Dispatched requests stall their worker for `stall_seconds`,
  /// ignoring cooperative cancellation — a stuck worker, the case the
  /// service's watchdog/requeue supervision exists for.
  kWorkerStall,
  /// Plan construction fails for every cache build in the window
  /// (models transient allocator/driver failures); drives the
  /// circuit-breaker and negative-cache-TTL machinery.
  kPlanFailureBurst,
  /// Traffic directive for harnesses: submit `flood_factor` times the
  /// nominal request rate during the window (saturates the queue and
  /// exercises admission control + load shedding).
  kQueueFlood,
  /// Traffic directive for harnesses: submit with `storm_deadline_ms`
  /// deadlines during the window (drives the deadline-miss rate).
  kDeadlineStorm,
};

/// One scheduled service-level fault, on the wall-clock timeline.
struct ServiceFaultEvent {
  ServiceFaultKind kind = ServiceFaultKind::kWorkerStall;
  double at_seconds = 0.0;        ///< window start, relative to start()
  double duration_seconds = 0.0;  ///< window length
  double stall_seconds = 0.25;    ///< kWorkerStall: per-dispatch stall
  double flood_factor = 8.0;      ///< kQueueFlood: rate multiplier
  double storm_deadline_ms = 1.0; ///< kDeadlineStorm: imposed deadline
};

/// One scheduled fault. Fields are interpreted per kind (see builders).
struct FaultEvent {
  FaultKind kind = FaultKind::kComponentFailure;
  index_t at = 0;  ///< global iteration at which the fault strikes
  /// Window length in global iterations; nullopt = permanent (the
  /// paper's "no recovery" curve).
  std::optional<index_t> duration{};
  value_t fraction = 0.25;     ///< kComponentFailure: share of components
  value_t magnitude = 1.0e6;   ///< kHaloCorruption / kIterateCorruption
  /// kIterateCorruption: the overwritten component; < 0 picks one from
  /// `seed` when the timeline is built.
  index_t component = -1;
  value_t probability = 0.05;  ///< kHaloCorruption: chance per halo read
  index_t device = 1;          ///< kDeviceDropout / kLinkFailure target
  std::uint64_t seed = 1234;   ///< which components / reads / component
};

/// A fault script: an ordered list of events (order is cosmetic; each
/// event carries its own trigger iteration). Built fluently:
///
///   FaultScenario s;
///   s.fail_components(10, 0.25, 20).fail_components(40, 0.10, 20)
///    .corrupt_halo(15, 5, 1e4).drop_device(8, /*device=*/1, 12)
///    .corrupt_iterate(25, 1e9);
struct FaultScenario {
  std::vector<FaultEvent> events;
  /// Service-level faults (wall-clock domain). One scenario can carry
  /// both solver- and service-level events, so a single timeline
  /// drives chaos at every layer (bench/service_chaos does exactly
  /// that); solver executors ignore `service_events` and the service
  /// injector ignores `events`.
  std::vector<ServiceFaultEvent> service_events;

  FaultScenario& fail_components(index_t at, value_t fraction,
                                 std::optional<index_t> recover_after = {},
                                 std::uint64_t seed = 1234);
  FaultScenario& corrupt_halo(index_t at, index_t duration, value_t magnitude,
                              value_t probability = 0.05,
                              std::uint64_t seed = 77);
  FaultScenario& drop_device(index_t at, index_t device,
                             std::optional<index_t> rejoin_after = {});
  FaultScenario& fail_link(index_t at, index_t device, index_t duration);
  FaultScenario& corrupt_iterate(index_t at, value_t magnitude,
                                 index_t component = -1,
                                 std::uint64_t seed = 4321);

  /// Service-level builders (seconds on the injector's wall clock).
  FaultScenario& stall_workers(double at_s, double duration_s,
                               double stall_s = 0.25);
  FaultScenario& fail_plan_builds(double at_s, double duration_s);
  FaultScenario& flood_queue(double at_s, double duration_s,
                             double factor = 8.0);
  FaultScenario& storm_deadlines(double at_s, double duration_s,
                                 double deadline_ms = 1.0);

  [[nodiscard]] bool empty() const {
    return events.empty() && service_events.empty();
  }
  [[nodiscard]] bool has_service_events() const {
    return !service_events.empty();
  }
};

/// Runtime engine for one solve. The owning executor calls
/// `advance(k)` at every global-iteration boundary (including k = 0
/// before the first sweep); all queries then reflect iteration k's
/// fault state. An event is active for iterations
/// `at <= k < at + duration`, so `duration == 0` is an immediate
/// reassignment (never observed).
class ScenarioTimeline {
 public:
  /// Throws std::invalid_argument for an iterate corruption at a
  /// boundary before 1 (boundary 0 is the initial residual) or at a
  /// component outside [0, num_rows).
  ScenarioTimeline(FaultScenario scenario, index_t num_rows,
                   index_t num_devices = 1);

  /// Apply all activations/expirations due at global iteration `k`.
  void advance(index_t k);

  /// Union mask over the active component failures (size num_rows);
  /// nullptr when no component is currently frozen.
  [[nodiscard]] const std::vector<std::uint8_t>* component_mask() const;
  [[nodiscard]] bool any_component_failed() const;

  /// Watchdog hook: reassign every currently-frozen component to a
  /// healthy core *now*, expiring the corresponding events. Returns the
  /// number of components freed.
  index_t reassign_failed_components();

  [[nodiscard]] bool halo_corruption_active() const;
  /// Corrupt `snapshot` in place according to the active corruption
  /// events (at most one entry per event per call).
  void maybe_corrupt_halo(Vector& snapshot);
  [[nodiscard]] index_t halo_corruptions() const { return corruptions_; }

  /// Apply the iterate corruptions due at global-iteration boundary
  /// `k` to `x` (the executor calls it for x and each device view).
  void corrupt_iterate(index_t k, Vector& x) const;

  [[nodiscard]] bool device_down(index_t device) const;
  [[nodiscard]] bool link_down(index_t device) const;

  [[nodiscard]] index_t num_rows() const { return n_; }

 private:
  struct EventState {
    FaultEvent event;
    bool active = false;
    bool done = false;               ///< expired (or reassigned); final
    std::vector<std::uint8_t> mask;  ///< kComponentFailure only
    Rng rng;                         ///< kHaloCorruption injection stream
    explicit EventState(const FaultEvent& e) : event(e), rng(e.seed) {}
  };

  void rebuild_component_mask();

  index_t n_ = 0;
  index_t num_devices_ = 1;
  std::vector<EventState> states_;
  std::vector<std::uint8_t> combined_mask_;
  bool any_failed_ = false;
  index_t corruptions_ = 0;
};

}  // namespace bars::resilience
