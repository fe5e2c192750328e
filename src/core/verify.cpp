#include "core/verify.hpp"

#include <stdexcept>

#include "fault/fault_map.hpp"

namespace pimsched {

VerifyReport verifySchedule(const DataSchedule& schedule, const Grid& grid,
                            std::int64_t capacity) {
  VerifyReport report;
  std::vector<std::int64_t> occupancy(
      static_cast<std::size_t>(grid.size()));

  for (WindowId w = 0; w < schedule.numWindows(); ++w) {
    std::fill(occupancy.begin(), occupancy.end(), 0);
    for (DataId d = 0; d < schedule.numData(); ++d) {
      const ProcId p = schedule.center(d, w);
      if (p == kNoProc) {
        report.issues.push_back(
            {ScheduleIssue::Kind::kIncompleteCell, d, w, p,
             "no center assigned"});
        continue;
      }
      if (!grid.contains(p)) {
        report.issues.push_back(
            {ScheduleIssue::Kind::kInvalidProcessor, d, w, p,
             "processor id outside the grid"});
        continue;
      }
      ++occupancy[static_cast<std::size_t>(p)];
    }
    if (capacity >= 0) {
      for (ProcId p = 0; p < grid.size(); ++p) {
        if (occupancy[static_cast<std::size_t>(p)] > capacity) {
          report.issues.push_back(
              {ScheduleIssue::Kind::kCapacityExceeded, -1, w, p,
               std::to_string(occupancy[static_cast<std::size_t>(p)]) +
                   " data in " + std::to_string(capacity) + " slots"});
        }
      }
    }
  }
  return report;
}

VerifyReport verifyScheduleFaults(const DataSchedule& schedule,
                                  const WindowedRefs& refs,
                                  const CostModel& model) {
  VerifyReport report;
  if (!model.faultAware()) return report;
  const DistanceMap& distances = model.distances();
  for (DataId d = 0; d < schedule.numData(); ++d) {
    for (WindowId w = 0; w < schedule.numWindows(); ++w) {
      const ProcId p = schedule.center(d, w);
      if (p == kNoProc || !model.grid().contains(p)) continue;  // verifySchedule's job
      if (!distances.alive(p)) {
        report.issues.push_back({ScheduleIssue::Kind::kDeadCenter, d, w, p,
                                 "datum placed on a dead processor"});
        continue;
      }
      for (const ProcWeight& pw : refs.refs(d, w)) {
        if (distances.hopDistance(p, pw.proc) >= kInfiniteCost) {
          report.issues.push_back(
              {ScheduleIssue::Kind::kUnreachableServe, d, w, p,
               "referencing processor " + std::to_string(pw.proc) +
                   " cannot reach the center"});
        }
      }
      if (w > 0) {
        const ProcId prev = schedule.center(d, w - 1);
        if (prev != kNoProc && prev != p && distances.alive(prev) &&
            distances.hopDistance(prev, p) >= kInfiniteCost) {
          report.issues.push_back(
              {ScheduleIssue::Kind::kUnreachableMove, d, w, p,
               "no alive route from previous center " + std::to_string(prev)});
        }
      }
    }
  }
  return report;
}

void requireFaultFeasible(const DataSchedule& schedule,
                          const WindowedRefs& refs, const CostModel& model) {
  const VerifyReport report = verifyScheduleFaults(schedule, refs, model);
  if (!report.ok()) {
    throw UnreachableError(
        "schedule violates the fault state (" +
        std::to_string(report.issues.size()) + " issue(s), first: " +
        report.issues.front().detail + ")");
  }
}

ScheduleDiff diffSchedules(const DataSchedule& a, const DataSchedule& b) {
  if (a.numData() != b.numData() || a.numWindows() != b.numWindows()) {
    throw std::invalid_argument("diffSchedules: shape mismatch");
  }
  ScheduleDiff diff;
  for (DataId d = 0; d < a.numData(); ++d) {
    bool affected = false;
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      if (a.center(d, w) != b.center(d, w)) {
        ++diff.differingCells;
        affected = true;
      }
      if (w > 0) {
        if (a.center(d, w) != a.center(d, w - 1)) ++diff.migrationsA;
        if (b.center(d, w) != b.center(d, w - 1)) ++diff.migrationsB;
      }
    }
    if (affected) ++diff.dataAffected;
  }
  return diff;
}

}  // namespace pimsched
