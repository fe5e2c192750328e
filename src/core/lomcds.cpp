#include "core/lomcds.hpp"

#include <vector>

#include "core/placement.hpp"
#include "cost/center_costs.hpp"
#include "obs/obs.hpp"

namespace pimsched {

DataSchedule scheduleLomcds(const WindowedRefs& refs, const CostModel& model,
                            const SchedulerOptions& options) {
  PIMSCHED_SCOPED_TIMER("sched.lomcds");
  Placement placement(refs, model, options.capacity, options.order);
  const DataSchedule& schedule = placement.schedule();
  std::vector<Cost> costs(static_cast<std::size_t>(model.grid().size()));
  for (WindowId w = 0; w < refs.numWindows(); ++w) {
    for (const DataId d : placement.order()) {
      ProcId p = kNoProc;
      if (!refs.refs(d, w).empty()) {
        separableCenterCostsInto(model, refs.refs(d, w), costs);
        p = placement.argminWithRoom(w, w + 1, [&](ProcId q) {
          return costs[static_cast<std::size_t>(q)];
        });
      } else if (w > 0) {
        // Unreferenced: prefer staying put; otherwise the cheapest move.
        const ProcId prev = schedule.center(d, w - 1);
        p = placement.argminWithRoom(
            w, w + 1, [&](ProcId q) { return model.moveCost(prev, q); });
      } else {
        // First window, no references: any processor does — except dead
        // ones, which cost zero like everything else here and so must be
        // forbidden explicitly.
        p = placement.argminWithRoom(w, w + 1, [&](ProcId q) {
          return model.centerForbidden(q) ? kInfiniteCost : Cost{0};
        });
      }
      if (p == kNoProc) {
        placement.fail("scheduleLomcds", "(all processors full)");
      }
      placement.place(d, w, p);
    }
  }
  PIMSCHED_COUNTER_ADD(
      "sched.lomcds.placements",
      static_cast<std::int64_t>(placement.order().size()) * refs.numWindows());
  return placement.finish();
}

}  // namespace pimsched
