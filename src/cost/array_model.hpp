#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"  // CostModel, DistanceMap, FaultMap

namespace pimsched {

/// Applies fault specs (applyFaultSpec grammar) to `faults` in order, and
/// appends each one that changed the map to `changed` when given (replaying
/// those alone gives the same map). A bad spec throws std::invalid_argument
/// "bad fault spec '<spec>': <reason>". O(P) at most, so submit and fleet
/// probes run it on any admitted grid.
void applyFaultSpecs(FaultMap& faults, std::span<const std::string> specs,
                     std::vector<std::string>* changed = nullptr);

/// One PIM array as the schedulers see it: its grid, its fault state and
/// the metric they imply, decided here only: a DistanceMap iff the fault
/// map has any fault, Manhattan distances otherwise. Specs that change
/// nothing thus run the healthy path (the metrics agree on a healthy
/// mesh). Immutable and pinned: the CostModels it hands out point into it.
class ArrayModel {
 public:
  /// A rows x cols mesh with `specs` applied in order (applyFaultSpecs).
  ArrayModel(int rows, int cols, std::span<const std::string> specs = {});
  /// A copy of `faults`, which must be built over a grid of grid's shape.
  /// canonicalSpecs() is then empty.
  ArrayModel(const Grid& grid, const FaultMap& faults);

  ArrayModel(const ArrayModel&) = delete;
  ArrayModel& operator=(const ArrayModel&) = delete;

  [[nodiscard]] const Grid& grid() const { return faults_.grid(); }
  [[nodiscard]] const FaultMap& faults() const { return faults_; }
  /// The specs that changed the map, in order.
  [[nodiscard]] const std::vector<std::string>& canonicalSpecs() const {
    return canonical_;
  }
  /// The alive-mesh distance table, or nullptr on a healthy array.
  [[nodiscard]] const DistanceMap* distances() const {
    return distances_.has_value() ? &*distances_ : nullptr;
  }
  /// This array's metric under `params`.
  [[nodiscard]] CostModel costModel(CostParams params = {}) const {
    return distances_.has_value() ? CostModel(grid(), *distances_, params)
                                  : CostModel(grid(), params);
  }

 private:
  void buildDistances();

  FaultMap faults_;  ///< owns the model's copy of the grid
  std::vector<std::string> canonical_;
  std::optional<DistanceMap> distances_;  ///< iff faults_.anyFaults()
};

}  // namespace pimsched
