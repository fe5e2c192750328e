#include "core/lomcds.hpp"

#include <stdexcept>
#include <string>

#include "core/data_order.hpp"
#include "cost/center_costs.hpp"
#include "cost/center_list.hpp"
#include "fault/fault_map.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"

namespace pimsched {

DataSchedule scheduleLomcds(const WindowedRefs& refs, const CostModel& model,
                            const SchedulerOptions& options) {
  PIMSCHED_SCOPED_TIMER("sched.lomcds");
  DataSchedule schedule(refs.numData(), refs.numWindows());
  const Grid& grid = model.grid();
  const std::vector<DataId> order = dataVisitOrder(refs, options.order);

  std::vector<Cost> costs(static_cast<std::size_t>(grid.size()));
  // Buffered locally and merged once on exit to keep the placement loop
  // free of atomic traffic.
  std::int64_t placements = 0;
  for (WindowId w = 0; w < refs.numWindows(); ++w) {
    OccupancyMap occupancy = model.occupancy(options.capacity);
    for (const DataId d : order) {
      if (!refs.refs(d, w).empty()) {
        separableCenterCostsInto(model, refs.refs(d, w), costs);
      } else if (w > 0) {
        // Unreferenced: prefer staying put; otherwise the cheapest move.
        const ProcId prev = schedule.center(d, w - 1);
        for (ProcId p = 0; p < grid.size(); ++p) {
          costs[static_cast<std::size_t>(p)] = model.moveCost(prev, p);
        }
      } else {
        // First window, no references: any processor does — except dead
        // ones, which cost zero like everything else here and so must be
        // forbidden explicitly.
        for (ProcId p = 0; p < grid.size(); ++p) {
          costs[static_cast<std::size_t>(p)] =
              model.centerForbidden(p) ? kInfiniteCost : 0;
        }
      }
      const CenterList list(costs);
      const ProcId p = list.firstAvailable(occupancy);
      if (p == kNoProc) {
        if (!list.hasFeasible()) {
          throw UnreachableError(
              "scheduleLomcds: no feasible center for datum " +
              std::to_string(d) + " in window " + std::to_string(w) +
              " on faulted mesh");
        }
        throw CapacityInfeasibleError(
            "scheduleLomcds: capacity infeasible (all processors full)");
      }
      if (!occupancy.tryPlace(p)) {
        // firstAvailable only returns processors with room; a failure here
        // means the occupancy accounting itself went wrong.
        throw std::logic_error(
            "scheduleLomcds: tryPlace failed for datum " + std::to_string(d) +
            " window " + std::to_string(w) + " on processor " +
            std::to_string(p) + " (used " + std::to_string(occupancy.used(p)) +
            "/" + std::to_string(occupancy.capacity()) + ")");
      }
      schedule.setCenter(d, w, p);
      ++placements;
    }
  }
  PIMSCHED_COUNTER_ADD("sched.lomcds.placements", placements);
  return schedule;
}

}  // namespace pimsched
