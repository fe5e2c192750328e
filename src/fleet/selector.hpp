#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "fleet/fleet.hpp"

namespace pimsched::fleet {

/// Array-selection policy of the fleet dispatcher.
enum class FleetPolicy {
  /// Score arrays by estimated serving cost of the job on that array
  /// (cheapest alive center under the array's cost model) plus
  /// the array's outstanding estimated work; skip arrays that cannot
  /// serve the job (unreachable references, insufficient residual
  /// capacity). Deterministic tie-breaks: fewer dead processors, then
  /// lower array index.
  kCost,
  /// Rotate over eligible arrays, blind to cost and load.
  kRoundRobin,
  /// Fewest queued+running jobs; ties by lower array index.
  kLeastLoaded,
};

[[nodiscard]] const char* toString(FleetPolicy policy);
[[nodiscard]] std::optional<FleetPolicy> fleetPolicyFromString(
    std::string_view name);

/// Per-array load snapshot the dispatcher feeds the selector.
struct ArrayLoad {
  std::size_t queued = 0;   ///< queued jobs planned onto the array
  std::size_t running = 0;  ///< jobs currently executing on the array
  /// Sum of the cost estimates of this array's in-flight jobs (kCost
  /// policy accounting; 0 under other policies).
  double outstandingWork = 0;
};

/// Chooses the hosting array for one job. Not thread-safe: the fleet
/// dispatcher calls it under its own lock (the round-robin cursor and the
/// estimate scratch buffer are plain members).
class ArraySelector {
 public:
  ArraySelector(ArrayFleet& fleet, FleetPolicy policy)
      : fleet_(&fleet), policy_(policy) {}

  [[nodiscard]] FleetPolicy policy() const { return policy_; }

  /// Picks from `eligible` (indices into the fleet, all shape-matching
  /// with free capacity to accept a job now) for a job whose whole-trace
  /// aggregated reference string is `refs`, carrying `numData` data under
  /// an explicit per-processor capacity (`explicitCapacity` >= 0;
  /// negative = a sentinel rule that always fits). `loads` is indexed by
  /// fleet array index. Returns the chosen fleet index, or -1 when no
  /// eligible array can serve the job (kCost only — the blind policies
  /// never return -1 for a non-empty eligible set). `estOut` receives the
  /// winner's cost estimate under kCost, 0 otherwise.
  [[nodiscard]] int select(std::span<const ProcWeight> refs,
                           std::int64_t numData,
                           std::int64_t explicitCapacity,
                           const std::vector<std::size_t>& eligible,
                           const std::vector<ArrayLoad>& loads, Cost* estOut);

 private:
  ArrayFleet* fleet_;
  FleetPolicy policy_;
  std::size_t rrCursor_ = 0;
  std::vector<Cost> scratch_;
};

}  // namespace pimsched::fleet
