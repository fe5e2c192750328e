#include "center_list.hpp"

#include <algorithm>
#include <numeric>

namespace pimsched {

CenterList::CenterList(std::span<const Cost> costs)
    : costs_(costs.begin(), costs.end()),
      order_(costs.size()) {
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(),
                   [this](ProcId a, ProcId b) {
                     return costs_[static_cast<std::size_t>(a)] <
                            costs_[static_cast<std::size_t>(b)];
                   });
}

ProcId CenterList::firstAvailable(const OccupancyMap& occupancy) const {
  for (const ProcId p : order_) {
    if (costs_[static_cast<std::size_t>(p)] >= kInfiniteCost) return kNoProc;
    if (occupancy.hasRoom(p)) return p;
  }
  return kNoProc;
}

}  // namespace pimsched
