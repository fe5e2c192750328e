#pragma once

#include <span>
#include <vector>

#include "cost/center_costs.hpp"
#include "pim/memory.hpp"

namespace pimsched {

/// The paper's "processor list": all processors sorted in ascending order of
/// the communication cost of hosting a datum (ties toward smaller id), so
/// that a datum can fall back to "the first available processor in the
/// processor list" when its optimal center is full (Algorithm 1, lines 5-7).
/// The literal list, sorted: the oracle that the schedulers' masked argmin
/// (core/placement.hpp) is checked against.
class CenterList {
 public:
  /// Builds the sorted list from per-processor costs.
  explicit CenterList(std::span<const Cost> costs);

  /// Processors in ascending cost order.
  [[nodiscard]] const std::vector<ProcId>& order() const { return order_; }

  /// Cost of hosting at processor p.
  [[nodiscard]] Cost costAt(ProcId p) const {
    return costs_[static_cast<std::size_t>(p)];
  }

  /// First *feasible* processor in the list with a free slot, or kNoProc
  /// when all are full (capacity made infeasible; callers treat that as an
  /// error). Processors priced kInfiniteCost — dead or unreachable on a
  /// faulted mesh — are never returned, no matter how empty they are.
  [[nodiscard]] ProcId firstAvailable(const OccupancyMap& occupancy) const;

 private:
  std::vector<Cost> costs_;
  std::vector<ProcId> order_;
};

}  // namespace pimsched
