#include "pim/memory.hpp"

#include <cassert>

namespace pimsched {

OccupancyMap::OccupancyMap(const Grid& grid, std::int64_t capacityPerProc)
    : capacity_(capacityPerProc),
      used_(static_cast<std::size_t>(grid.size()), 0) {}

void OccupancyMap::limitCapacity(ProcId p, std::int64_t cap) {
  assert(cap >= 0 && "per-processor limit must be >= 0");
  if (limits_.empty()) limits_.assign(used_.size(), -1);
  auto& limit = limits_[static_cast<std::size_t>(p)];
  if (limit < 0 || cap < limit) limit = cap;
}

std::int64_t paperCapacity(const Grid& grid, std::int64_t numData) {
  const std::int64_t procs = grid.size();
  const std::int64_t minimum = (numData + procs - 1) / procs;
  return 2 * minimum;
}

}  // namespace pimsched
