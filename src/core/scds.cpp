#include "core/scds.hpp"

#include <stdexcept>
#include <string>

#include "core/data_order.hpp"
#include "cost/center_costs.hpp"
#include "cost/center_list.hpp"
#include "fault/fault_map.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"

namespace pimsched {

DataSchedule scheduleScds(const WindowedRefs& refs, const CostModel& model,
                          const SchedulerOptions& options) {
  PIMSCHED_SCOPED_TIMER("sched.scds");
  DataSchedule schedule(refs.numData(), refs.numWindows());
  // A static placement occupies its slot for the whole run, so a single
  // occupancy map covers every window.
  OccupancyMap occupancy = model.occupancy(options.capacity);

  std::vector<Cost> costs(static_cast<std::size_t>(model.grid().size()));
  // Buffered locally and merged once on exit to keep the placement loop
  // free of atomic traffic.
  std::int64_t placements = 0;
  for (const DataId d : dataVisitOrder(refs, options.order)) {
    separableCenterCostsInto(model, refs.mergedRefs(d, 0, refs.numWindows()),
                             costs);
    const CenterList list(costs);
    const ProcId p = list.firstAvailable(occupancy);
    if (p == kNoProc) {
      if (!list.hasFeasible()) {
        throw UnreachableError("scheduleScds: no feasible center for datum " +
                               std::to_string(d) + " on faulted mesh");
      }
      throw CapacityInfeasibleError(
          "scheduleScds: capacity infeasible (all processors full)");
    }
    if (!occupancy.tryPlace(p)) {
      // firstAvailable only returns processors with room; a failure here
      // means the occupancy accounting itself went wrong.
      throw std::logic_error("scheduleScds: tryPlace failed for datum " +
                             std::to_string(d) + " on processor " +
                             std::to_string(p) + " (used " +
                             std::to_string(occupancy.used(p)) + "/" +
                             std::to_string(occupancy.capacity()) + ")");
    }
    schedule.setStatic(d, p);
    ++placements;
  }
  PIMSCHED_COUNTER_ADD("sched.scds.placements", placements);
  return schedule;
}

}  // namespace pimsched
