#include "core/scds.hpp"

#include <algorithm>
#include <vector>

#include "core/placement.hpp"
#include "cost/center_costs.hpp"
#include "obs/obs.hpp"

namespace pimsched {

DataSchedule scheduleScds(const WindowedRefs& refs, const CostModel& model,
                          const SchedulerOptions& options) {
  PIMSCHED_SCOPED_TIMER("sched.scds");
  const WindowId W = refs.numWindows();
  // A static placement occupies its slot in every window, so every window
  // holds the same data and window 0's room speaks for all of them.
  const WindowId probe = std::min<WindowId>(W, 1);
  Placement placement(refs, model, options.capacity, options.order);
  std::vector<Cost> costs(static_cast<std::size_t>(model.grid().size()));
  for (const DataId d : placement.order()) {
    separableCenterCostsInto(model, refs.mergedRefs(d, 0, W), costs);
    const ProcId p = placement.argminWithRoom(0, probe, [&](ProcId q) {
      return costs[static_cast<std::size_t>(q)];
    });
    if (p == kNoProc) {
      placement.fail("scheduleScds", "(all processors full)");
    }
    for (WindowId w = 0; w < W; ++w) placement.place(d, w, p);
  }
  PIMSCHED_COUNTER_ADD("sched.scds.placements",
                       static_cast<std::int64_t>(placement.order().size()));
  return placement.finish();
}

}  // namespace pimsched
