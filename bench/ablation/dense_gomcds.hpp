#pragma once

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// GOMCDS through the dense layered cost graph, the literal reading of
/// paper Algorithm 2: one P x P table of model.moveCost built per call, and
/// one LayeredDagSolver::solveFlatInto per dedup class — an O(P^2) relax
/// per layer. A frozen baseline for the benches that time the
/// grid-structured kernels of scheduleGomcds against it; its schedules are
/// identical to scheduleGomcds. Single-threaded.
///
/// Only the static forbidden set is supported (unlimited capacity, no
/// alive processor with a fault capacity limit): any other options or
/// model throw std::invalid_argument.
[[nodiscard]] DataSchedule scheduleDenseGomcds(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options = {});

}  // namespace pimsched
