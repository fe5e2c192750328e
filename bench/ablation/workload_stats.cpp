#include "ablation/workload_stats.hpp"

#include <algorithm>
#include <ostream>
#include <vector>

#include "cost/center_costs.hpp"

namespace pimsched {

TraceStats computeTraceStats(const WindowedRefs& refs,
                             const CostModel& model) {
  const Grid& grid = model.grid();
  TraceStats stats;
  stats.numData = refs.numData();
  stats.numWindows = refs.numWindows();

  std::int64_t unreferenced = 0;
  std::int64_t nonEmptyCells = 0;
  std::int64_t procCount = 0;
  double driftWeighted = 0.0;
  Cost driftWeight = 0;
  std::vector<Cost> weights;
  weights.reserve(static_cast<std::size_t>(refs.numData()));

  for (DataId d = 0; d < refs.numData(); ++d) {
    const Cost w = refs.dataWeight(d);
    weights.push_back(w);
    stats.totalWeight += w;
    if (w == 0) {
      ++unreferenced;
      continue;
    }
    ProcId prevCenter = kNoProc;
    for (WindowId win = 0; win < refs.numWindows(); ++win) {
      const auto rs = refs.refs(d, win);
      if (rs.empty()) continue;
      ++nonEmptyCells;
      procCount += static_cast<std::int64_t>(rs.size());
      const ProcId center = bestCenter(model, rs).proc;
      if (prevCenter != kNoProc) {
        driftWeighted += static_cast<double>(w) *
                         grid.manhattan(prevCenter, center);
        driftWeight += w;
      }
      prevCenter = center;
    }
  }

  stats.unreferencedFraction =
      refs.numData() > 0
          ? static_cast<double>(unreferenced) / refs.numData()
          : 0.0;
  stats.meanProcsPerWindow =
      nonEmptyCells > 0
          ? static_cast<double>(procCount) / static_cast<double>(nonEmptyCells)
          : 0.0;
  stats.meanCenterDrift =
      driftWeight > 0 ? driftWeighted / static_cast<double>(driftWeight)
                      : 0.0;

  std::sort(weights.begin(), weights.end(), std::greater<>());
  const std::size_t decile = std::max<std::size_t>(1, weights.size() / 10);
  Cost top = 0;
  for (std::size_t i = 0; i < decile && i < weights.size(); ++i) {
    top += weights[i];
  }
  stats.topDecileWeightShare =
      stats.totalWeight > 0
          ? static_cast<double>(top) / static_cast<double>(stats.totalWeight)
          : 0.0;
  return stats;
}

std::ostream& operator<<(std::ostream& os, const TraceStats& stats) {
  return os << "data=" << stats.numData << " windows=" << stats.numWindows
            << " volume=" << stats.totalWeight
            << " unref=" << stats.unreferencedFraction
            << " procs/window=" << stats.meanProcsPerWindow
            << " drift=" << stats.meanCenterDrift
            << " top10%share=" << stats.topDecileWeightShare;
}

}  // namespace pimsched
