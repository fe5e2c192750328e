#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_map.hpp"
#include "pim/grid.hpp"
#include "pim/types.hpp"

namespace pimsched {

/// Memoized all-pairs hop distances over the *alive* sub-mesh of a
/// faulted grid: a BFS per source honoring dead processors and dead
/// directed links. This is the fault-aware generalization of the paper's
/// Manhattan metric — on a fault-free mesh every entry equals
/// grid.manhattan(a, b), so a CostModel carrying a DistanceMap of an
/// empty FaultMap reproduces the original cost model exactly.
///
/// Build cost is O(procs * (procs + links)) once per fault state; lookups
/// are one table read, so the table plugs into the serving-cost provider
/// (cost/serve_tables.hpp) unchanged: a ServeTables is tied to one
/// CostModel, hence to one DistanceMap.
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
