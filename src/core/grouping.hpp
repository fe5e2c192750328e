#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/center_costs.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Per-datum cumulative serving costs: segment(b, e, p) is the cost of
/// serving windows [b, e) of one datum from processor p, in O(1) after an
/// O(numWindows * numProcs) prefix build. This is what makes Algorithm 3's
/// repeated regrouping cheap.
///
/// On a faulted mesh a window can price p at kInfiniteCost (p dead, or cut
/// off from a referencing processor). Those terms are not summed — a few
/// of them would overflow int64 — but counted: segment() saturates to
/// kInfiniteCost whenever [b, e) holds one. The count table is only built
/// once such a term appears, so healthy meshes pay nothing for it.
class WindowCostPrefix {
 public:
  /// Built from datum d's serving-cost rows, each computed by
  /// separableCenterCostsInto straight into its prefix row.
  WindowCostPrefix(const WindowedRefs& refs, const CostModel& model, DataId d);

  [[nodiscard]] int numWindows() const { return numWindows_; }
  [[nodiscard]] int numProcs() const { return numProcs_; }

  [[nodiscard]] Cost segment(WindowId begin, WindowId end, ProcId p) const {
    if (!infinite_.empty() &&
        infinite_[index(end, p)] != infinite_[index(begin, p)]) {
      return kInfiniteCost;
    }
    return at(end, p) - at(begin, p);
  }

  /// Total reference volume of the merged window [begin, end).
  [[nodiscard]] Cost segmentWeight(WindowId begin, WindowId end) const {
    return weightPrefix_[static_cast<std::size_t>(end)] -
           weightPrefix_[static_cast<std::size_t>(begin)];
  }

  /// Min-cost center of a merged window [begin, end), ties to smaller id.
  [[nodiscard]] BestCenter bestSegmentCenter(WindowId begin,
                                             WindowId end) const;

 private:
  [[nodiscard]] std::size_t index(WindowId w, ProcId p) const {
    return static_cast<std::size_t>(w) * static_cast<std::size_t>(numProcs_) +
           static_cast<std::size_t>(p);
  }
  [[nodiscard]] Cost at(WindowId w, ProcId p) const {
    return prefix_[index(w, p)];
  }

  int numWindows_;
  int numProcs_;
  std::vector<Cost> prefix_;        ///< (numWindows + 1) x numProcs
  std::vector<Cost> weightPrefix_;  ///< numWindows + 1
  /// (numWindows + 1) x numProcs prefix count of kInfiniteCost terms;
  /// empty while there are none.
  std::vector<std::int32_t> infinite_;
};

/// A partition of one datum's windows into consecutive groups, each with a
/// single center — the output of the paper's Algorithm 3.
struct DataGrouping {
  std::vector<WindowId> starts;  ///< first window of each group; starts[0]==0
  std::vector<ProcId> centers;   ///< center of each group

  [[nodiscard]] int numGroups() const {
    return static_cast<int>(starts.size());
  }

  /// Windows [begin, end) of group i when the datum has numWindows.
  [[nodiscard]] std::pair<WindowId, WindowId> range(int i,
                                                    int numWindows) const {
    const auto at = [this](int k) {
      return starts[static_cast<std::size_t>(k)];
    };
    return {at(i), i + 1 < numGroups() ? at(i + 1) : numWindows};
  }
};

/// Total cost of a grouping: serving every group from its center plus
/// movement between consecutive group centers (the paper's COST(T)),
/// saturating at kInfiniteCost.
[[nodiscard]] Cost groupingCost(const DataGrouping& grouping,
                                const WindowCostPrefix& prefix,
                                const CostModel& model);

/// One singleton group per window with its local-optimal center — the
/// LOMCDS starting point of Algorithm 3. Windows without references keep
/// the previous window's center (a leading run of empty windows adopts the
/// first referenced window's center), matching LOMCDS's stay-put rule so
/// that no phantom movement is charged.
[[nodiscard]] DataGrouping singletonGrouping(const WindowCostPrefix& prefix);

/// Paper Algorithm 3: walk the windows left to right, extending the current
/// group by the next window whenever the total cost does not increase,
/// otherwise starting a new group there. Centers are recomputed per merged
/// window ("using LOMCDS to compute centers").
[[nodiscard]] DataGrouping greedyGrouping(const WindowCostPrefix& prefix,
                                          const CostModel& model);

/// Exact minimum over all groupings (ablation A3): dynamic program over
/// (last window of group, group center) with the same Manhattan chamfer
/// relaxation GOMCDS uses; O(numWindows^2 * numProcs).
[[nodiscard]] DataGrouping optimalGrouping(const WindowCostPrefix& prefix,
                                           const CostModel& model);

enum class GroupingMethod { kGreedy, kOptimalDp };

/// Applies per-datum window grouping and materialises the result as a full
/// schedule (each window of a group gets the group's center), honouring the
/// capacity constraint per window with the processor-list fallback. This is
/// the configuration behind the paper's Table 2. On a fault-aware model the
/// fault capacity limits apply and no group is centered on a processor the
/// model prices at kInfiniteCost (dead or unreachable).
[[nodiscard]] DataSchedule scheduleGroupedLomcds(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options = {},
    GroupingMethod method = GroupingMethod::kGreedy);

/// The paper's Table 2 GOMCDS column: Algorithm 3 merges each datum's
/// windows (greedy, capacity-aware), then the GOMCDS shortest-path DP
/// re-optimises the center of every *group* jointly with the movement
/// between groups. Never worse than scheduleGroupedLomcds on the same
/// groups; never better than plain GOMCDS (coarser decisions). The
/// practical payoff is speed: the DP runs over groups instead of windows.
/// On a faulted mesh the DP prices movement by fault-aware hop distance
/// (the masked mesh kernel GOMCDS uses) and never picks a forbidden center.
[[nodiscard]] DataSchedule scheduleGroupedGomcds(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options = {});

}  // namespace pimsched
