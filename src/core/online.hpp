#pragma once

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Online multiple-center scheduling with bounded lookahead — a practical
/// variant the paper leaves open: GOMCDS assumes the *entire* sequence of
/// execution windows is known before execution; a run-time system may only
/// know the next few. This scheduler commits one window at a time using a
/// rolling-horizon version of the GOMCDS DP over the next
/// `lookahead + 1` windows.
///
///  * lookahead = 0   — movement-aware greedy: each window picks
///    argmin_p move(prev, p) + serve(w, p). (Plain LOMCDS is the same
///    minus the movement term.)
///  * lookahead >= numWindows - 1 — identical total cost to GOMCDS at
///    unlimited capacity, on healthy and faulted meshes alike.
///
/// On a fault-aware model the fault capacity limits apply, and movement is
/// priced by fault-aware hop distance, as in GOMCDS.
struct OnlineOptions {
  int lookahead = 1;
  std::int64_t capacity = -1;
  DataOrder order = DataOrder::kById;
};

[[nodiscard]] DataSchedule scheduleOnline(const WindowedRefs& refs,
                                          const CostModel& model,
                                          const OnlineOptions& options = {});

}  // namespace pimsched
