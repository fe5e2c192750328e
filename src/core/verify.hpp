#pragma once

#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Structured schedule diagnostics — what a runtime or CI check would run
/// on a schedule before deploying it. Collects every violation instead of
/// failing on the first.
struct ScheduleIssue {
  enum class Kind {
    kIncompleteCell,     ///< center unset for a (datum, window)
    kInvalidProcessor,   ///< center outside the grid
    kCapacityExceeded,   ///< a (window, processor) over its slot budget
    kDeadCenter,         ///< a datum placed on a dead processor
    kUnreachableServe,   ///< a referencing processor cannot reach the center
    kUnreachableMove,    ///< a window-to-window migration has no alive route
  };
  Kind kind;
  DataId data = -1;     ///< -1 when not datum-specific
  WindowId window = -1;
  ProcId proc = kNoProc;
  std::string detail;
};

struct VerifyReport {
  std::vector<ScheduleIssue> issues;
  [[nodiscard]] bool ok() const { return issues.empty(); }
};

/// Checks shape, completeness, processor validity and per-window capacity
/// (capacity < 0 = unlimited).
[[nodiscard]] VerifyReport verifySchedule(const DataSchedule& schedule,
                                          const Grid& grid,
                                          std::int64_t capacity);

/// Fault-side checks of a schedule against a fault-aware cost model: no
/// datum on a dead processor (kDeadCenter), every referencing processor
/// can reach its window's center over the alive sub-mesh
/// (kUnreachableServe), and every migration between consecutive windows
/// has an alive route (kUnreachableMove). A model without a DistanceMap
/// trivially passes. This is what the serving daemon runs on schedules
/// produced against a faulted topology before replying `completed`.
[[nodiscard]] VerifyReport verifyScheduleFaults(const DataSchedule& schedule,
                                                const WindowedRefs& refs,
                                                const CostModel& model);

/// Throws UnreachableError naming the first verifyScheduleFaults issue,
/// if any. Fault-oblivious methods (the baselines) can legally return data
/// on dead processors; this is the check every serving path runs before
/// handing out a schedule computed against a faulted topology.
void requireFaultFeasible(const DataSchedule& schedule,
                          const WindowedRefs& refs, const CostModel& model);

/// Differences between two schedules over the same shape: how many
/// (datum, window) cells differ and how the migration behaviour changes.
struct ScheduleDiff {
  std::int64_t differingCells = 0;
  std::int64_t migrationsA = 0;  ///< center changes between windows in A
  std::int64_t migrationsB = 0;
  std::int64_t dataAffected = 0;  ///< data with at least one differing cell
};

[[nodiscard]] ScheduleDiff diffSchedules(const DataSchedule& a,
                                         const DataSchedule& b);

}  // namespace pimsched
