#include "fleet/selector.hpp"

namespace pimsched::fleet {

const char* toString(FleetPolicy policy) {
  switch (policy) {
    case FleetPolicy::kCost: return "cost";
    case FleetPolicy::kRoundRobin: return "roundrobin";
    case FleetPolicy::kLeastLoaded: return "leastloaded";
  }
  return "unknown";
}

std::optional<FleetPolicy> fleetPolicyFromString(std::string_view name) {
  if (name == "cost") return FleetPolicy::kCost;
  if (name == "roundrobin") return FleetPolicy::kRoundRobin;
  if (name == "leastloaded") return FleetPolicy::kLeastLoaded;
  return std::nullopt;
}

int ArraySelector::select(std::span<const ProcWeight> refs,
                          std::int64_t numData,
                          std::int64_t explicitCapacity,
                          const std::vector<std::size_t>& eligible,
                          const std::vector<ArrayLoad>& loads, Cost* estOut) {
  if (estOut != nullptr) *estOut = 0;
  if (eligible.empty()) return -1;

  if (policy_ == FleetPolicy::kRoundRobin) {
    const std::size_t pick = eligible[rrCursor_ % eligible.size()];
    ++rrCursor_;
    return static_cast<int>(pick);
  }

  if (policy_ == FleetPolicy::kLeastLoaded) {
    std::size_t best = eligible.front();
    std::size_t bestLoad = loads[best].queued + loads[best].running;
    for (const std::size_t i : eligible) {
      const std::size_t load = loads[i].queued + loads[i].running;
      if (load < bestLoad) {
        best = i;
        bestLoad = load;
      }
    }
    return static_cast<int>(best);
  }

  // kCost: estimated serving cost on the array plus the array's
  // outstanding estimated work, so a cheap-but-backlogged array loses to
  // a slightly dearer idle one. Infeasible arrays (unreachable
  // references, insufficient residual capacity) are skipped.
  int best = -1;
  double bestScore = 0;
  Cost bestEst = 0;
  for (const std::size_t i : eligible) {
    ArrayState& array = fleet_->at(i);
    if (explicitCapacity >= 0 &&
        numData > array.capacitySlots(explicitCapacity)) {
      continue;
    }
    const Cost est = array.estimateCost(refs, scratch_);
    if (est >= kInfiniteCost) continue;
    const double score =
        loads[i].outstandingWork + static_cast<double>(est);
    const bool wins =
        best < 0 || score < bestScore ||
        (score == bestScore &&
         array.deadProcs() <
             fleet_->at(static_cast<std::size_t>(best)).deadProcs());
    if (wins) {
      best = static_cast<int>(i);
      bestScore = score;
      bestEst = est;
    }
  }
  if (best >= 0 && estOut != nullptr) *estOut = bestEst;
  return best;
}

}  // namespace pimsched::fleet
