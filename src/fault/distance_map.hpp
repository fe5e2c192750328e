#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_map.hpp"
#include "pim/grid.hpp"
#include "pim/types.hpp"

namespace pimsched {

/// All-pairs hop distances over the *alive* sub-mesh of a faulted grid: a
/// BFS per source honoring dead processors and dead directed links, the
/// fault-aware generalization of the paper's Manhattan metric (on a
/// fault-free mesh every entry equals grid.manhattan(a, b)). Building it
/// costs O(procs * (procs + links)) time and procs^2 entries; the
/// scheduling paths get theirs from ArrayModel, the one place that
/// builds it, and only for an array with a fault.
class DistanceMap {
 public:
  DistanceMap(const Grid& grid, const FaultMap& faults);

  [[nodiscard]] const Grid& grid() const { return *grid_; }
  [[nodiscard]] const FaultMap& faults() const { return *faults_; }

  [[nodiscard]] bool alive(ProcId p) const {
    return alive_[static_cast<std::size_t>(p)] != 0;
  }

  /// Fault-aware hop distance from a to b, or kInfiniteCost when either
  /// endpoint is dead or the alive sub-mesh has no a -> b path.
  [[nodiscard]] Cost hopDistance(ProcId a, ProcId b) const {
    const std::int32_t d =
        dist_[static_cast<std::size_t>(a) * static_cast<std::size_t>(size_) +
              static_cast<std::size_t>(b)];
    return d < 0 ? kInfiniteCost : static_cast<Cost>(d);
  }

  /// True when some alive pair cannot reach each other (the mesh is
  /// partitioned). Directed: a -> b unreachable counts even if b -> a is
  /// routable.
  [[nodiscard]] bool partitioned() const { return partitioned_; }

 private:
  const Grid* grid_;
  const FaultMap* faults_;
  int size_ = 0;
  std::vector<char> alive_;
  std::vector<std::int32_t> dist_;  ///< size*size, -1 = unreachable
  bool partitioned_ = false;
};

}  // namespace pimsched
