#include "ablation/replication.hpp"

#include <algorithm>
#include <stdexcept>

#include "ablation/kmedian.hpp"
#include "core/data_order.hpp"
#include "core/placement.hpp"
#include "cost/center_costs.hpp"
#include "fault/fault_map.hpp"
#include "pim/memory.hpp"

namespace pimsched {

std::int64_t ReplicatedSchedule::totalReplicas() const {
  std::int64_t total = 0;
  for (const auto& r : replicas_) total += static_cast<std::int64_t>(r.size());
  return total;
}

ReplicatedSchedule scheduleReplicated(const WindowedRefs& refs,
                                      const CostModel& model,
                                      const ReplicationOptions& options) {
  if (options.maxReplicasPerDatum < 1) {
    throw std::invalid_argument(
        "scheduleReplicated: maxReplicasPerDatum must be >= 1");
  }
  ReplicatedSchedule schedule(refs.numData());
  OccupancyMap occupancy(model.grid(), options.capacity);
  const std::vector<DataId> order = dataVisitOrder(refs, options.order);
  std::vector<Cost> costs(static_cast<std::size_t>(model.grid().size()));

  // Phase 1: every datum gets its primary copy (the SCDS placement with
  // the capacity fallback) before any replica may claim a slot — replicas
  // are strictly optional and must not starve later primaries.
  for (const DataId d : order) {
    separableCenterCostsInto(model, refs.mergedRefs(d, 0, refs.numWindows()),
                             costs);
    const ProcId primary = argminWithRoom(
        model.grid().size(),
        [&](ProcId p) { return costs[static_cast<std::size_t>(p)]; },
        [&](ProcId p) { return occupancy.hasRoom(p); });
    if (primary == kNoProc) {
      throw CapacityInfeasibleError(
          "scheduleReplicated: capacity infeasible for primary copies");
    }
    occupancy.tryPlace(primary);
    schedule.setReplicas(d, {primary});
  }

  // Phase 2: grow replica sets with the remaining slots.
  for (const DataId d : order) {
    const std::vector<ProcWeight> merged =
        refs.mergedRefs(d, 0, refs.numWindows());
    std::vector<ProcId> replicas(schedule.replicas(d).begin(),
                                 schedule.replicas(d).end());
    Cost current = nearestCenterCost(model, merged, replicas);

    // Grow the replica set while each copy pays for itself. kMedian gives
    // the target set; we re-derive the incremental copy so that capacity
    // can veto individual replicas.
    for (int k = 2; k <= options.maxReplicasPerDatum; ++k) {
      const KMedianResult target = kMedian(model, merged, k);
      if (current - target.cost < options.minGainPerReplica) break;
      // Add the target's centers we do not hold yet, best-gain first.
      ProcId bestProc = kNoProc;
      Cost bestCost = current;
      for (const ProcId c : target.centers) {
        if (std::find(replicas.begin(), replicas.end(), c) !=
            replicas.end()) {
          continue;
        }
        if (!occupancy.hasRoom(c)) continue;
        std::vector<ProcId> candidate = replicas;
        candidate.push_back(c);
        const Cost cost = nearestCenterCost(model, merged, candidate);
        if (cost < bestCost) {
          bestCost = cost;
          bestProc = c;
        }
      }
      if (bestProc == kNoProc ||
          current - bestCost < options.minGainPerReplica) {
        break;
      }
      occupancy.tryPlace(bestProc);
      replicas.push_back(bestProc);
      current = bestCost;
    }
    std::sort(replicas.begin(), replicas.end());
    schedule.setReplicas(d, std::move(replicas));
  }
  return schedule;
}

Cost evaluateReplicated(const ReplicatedSchedule& schedule,
                        const WindowedRefs& refs, const CostModel& model) {
  if (schedule.numData() != refs.numData()) {
    throw std::invalid_argument("evaluateReplicated: shape mismatch");
  }
  Cost total = 0;
  for (DataId d = 0; d < refs.numData(); ++d) {
    const std::span<const ProcId> reps = schedule.replicas(d);
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      total += nearestCenterCost(model, refs.refs(d, w), reps);
    }
  }
  return total;
}

}  // namespace pimsched
