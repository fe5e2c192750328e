#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pimsched::fleet {

/// Per-array health verdict, in increasing severity. Degraded arrays keep
/// serving (the cost selector already prices their faults); quarantined
/// arrays are withheld from new placements until they have been stable
/// for the re-admission cooldown.
enum class HealthState {
  kHealthy,
  kDegraded,
  kQuarantined,
};

[[nodiscard]] const char* toString(HealthState s);

/// The one tunable of the health state machine. Its thresholds are fixed
/// (see health.cpp): quarantine below half the processors alive, on a
/// partitioned alive sub-mesh, after 3 consecutive job failures, or past
/// 4 drift events inside 10 s. All times are nanoseconds on whatever
/// clock the caller feeds in (the monitor never reads a clock itself,
/// which is what makes the hysteresis testable).
struct HealthPolicy {
  /// A quarantined array is re-admitted only after its facts have looked
  /// acceptable for this long (hysteresis): a heal immediately followed
  /// by another fault never bounces work onto the array in between.
  std::int64_t cooldownNs = 2'000'000'000;
};

/// What the monitor observes about one array at an event. Derived from
/// ArrayState by the fleet service; kept as plain numbers so the state
/// machine is unit-testable without building grids.
struct ArrayFacts {
  int aliveProcs = 0;
  int totalProcs = 0;
  bool partitioned = false;
  bool anyFaults = false;
};

/// Tracks per-array health across live fault drift and job outcomes:
///
///            inject/heal, job failures
///   healthy <────────────> degraded ──────> quarantined
///       ^                                        │
///       └──────── stable for cooldownNs ─────────┘
///
/// Quarantine entry is immediate (severe facts, failure streak, or
/// flapping); quarantine *exit* is lazy and hysteretic — admissible()
/// promotes the array back out only once its facts have been acceptable
/// and quiet for the cooldown. Callers provide the clock and the
/// synchronisation (FleetService calls everything under its own lock).
class HealthMonitor {
 public:
  HealthMonitor() = default;
  HealthMonitor(std::size_t arrayCount, HealthPolicy policy);

  /// (Re)initialises for `arrayCount` arrays, all healthy.
  void reset(std::size_t arrayCount, HealthPolicy policy);

  /// Seeds the boot facts of an array without counting a drift event —
  /// standing faults from the fleet spec are a configuration, not a flap.
  void observe(std::size_t i, const ArrayFacts& facts, std::int64_t nowNs);

  /// A live inject or heal landed on the array. Returns the new state.
  HealthState onDrift(std::size_t i, const ArrayFacts& facts,
                      std::int64_t nowNs);

  /// A job failed on the array with an error that indicts the mesh
  /// (unreachable / internal, not the request's own inputs).
  HealthState onJobFailure(std::size_t i, std::int64_t nowNs);
  /// A job completed on the array; resets the failure streak.
  void onJobSuccess(std::size_t i);

  [[nodiscard]] HealthState state(std::size_t i) const;
  /// Number of state transitions the array has gone through (stats).
  [[nodiscard]] std::int64_t transitions(std::size_t i) const;

  /// Whether new work may be placed on the array now. Healthy and
  /// degraded arrays are admissible. A quarantined array is promoted (and
  /// admitted) here once its facts are acceptable, its failure streak is
  /// below threshold, and nothing bad has happened for cooldownNs.
  [[nodiscard]] bool admissible(std::size_t i, std::int64_t nowNs);

 private:
  struct Entry {
    HealthState state = HealthState::kHealthy;
    ArrayFacts facts;
    int failureStreak = 0;
    /// Timestamp of the most recent quarantine-worthy observation; the
    /// cooldown counts from here.
    std::int64_t lastBadNs = 0;
    /// Recent drift-event timestamps inside the flap window.
    std::vector<std::int64_t> driftNs;
    std::int64_t transitions = 0;
  };

  /// Severity the facts alone justify (no history).
  [[nodiscard]] HealthState classify(const ArrayFacts& facts) const;
  void setState(Entry& e, HealthState next, std::int64_t nowNs);

  HealthPolicy policy_;
  std::vector<Entry> entries_;
};

}  // namespace pimsched::fleet
