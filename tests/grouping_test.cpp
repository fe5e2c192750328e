#include "core/grouping.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/data_order.hpp"
#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/lomcds.hpp"
#include "core/pipeline.hpp"
#include "core/verify.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "kernels/benchmarks.hpp"
#include "pim/memory.hpp"
#include "center_list.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

// Frozen copy of the capacity-aware grouper and the grouped schedulers as
// they were before segment centers were memoized: every segment-center and
// nearest-center request copies the costs and stable-sorts them through a
// CenterList, and the group DP materializes its node costs per datum. The
// production code must reproduce its schedules bit for bit on healthy
// meshes, and its error messages when capacity runs out.
namespace reference {

class SortingGrouper {
 public:
  SortingGrouper(const WindowCostPrefix& prefix, const CostModel& model,
                 const std::vector<OccupancyMap>& occupancy)
      : prefix_(prefix), model_(model), occupancy_(occupancy) {}

  [[nodiscard]] ProcId availableSegmentCenter(WindowId begin,
                                              WindowId end) const {
    const int m = prefix_.numProcs();
    std::vector<Cost> costs(static_cast<std::size_t>(m));
    for (ProcId p = 0; p < m; ++p) {
      costs[static_cast<std::size_t>(p)] = prefix_.segment(begin, end, p);
    }
    const CenterList list(costs);
    for (const ProcId p : list.order()) {
      if (roomEverywhere(p, begin, end)) return p;
    }
    return kNoProc;
  }

  [[nodiscard]] bool roomEverywhere(ProcId p, WindowId begin,
                                    WindowId end) const {
    for (WindowId w = begin; w < end; ++w) {
      if (!occupancy_[static_cast<std::size_t>(w)].hasRoom(p)) return false;
    }
    return true;
  }

  [[nodiscard]] std::optional<DataGrouping> withCenters(
      std::vector<WindowId> starts) const {
    DataGrouping g;
    g.starts = std::move(starts);
    const int n = g.numGroups();
    g.centers.assign(static_cast<std::size_t>(n), kNoProc);
    for (int i = 0; i < n; ++i) {
      const auto [begin, end] = groupRange(g, i);
      if (prefix_.segmentWeight(begin, end) > 0) {
        g.centers[static_cast<std::size_t>(i)] =
            availableSegmentCenter(begin, end);
        if (g.centers[static_cast<std::size_t>(i)] == kNoProc) {
          return std::nullopt;
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      if (g.centers[static_cast<std::size_t>(i)] != kNoProc) continue;
      const ProcId neighbor =
          (i > 0) ? g.centers[static_cast<std::size_t>(i - 1)] : kNoProc;
      if (neighbor != kNoProc) {
        g.centers[static_cast<std::size_t>(i)] =
            nearestAvailable(neighbor, g, i);
        if (g.centers[static_cast<std::size_t>(i)] == kNoProc) {
          return std::nullopt;
        }
      }
    }
    for (int i = n - 1; i >= 0; --i) {
      if (g.centers[static_cast<std::size_t>(i)] != kNoProc) continue;
      const ProcId neighbor = (i + 1 < n)
                                  ? g.centers[static_cast<std::size_t>(i + 1)]
                                  : static_cast<ProcId>(0);
      g.centers[static_cast<std::size_t>(i)] =
          nearestAvailable(neighbor == kNoProc ? 0 : neighbor, g, i);
      if (g.centers[static_cast<std::size_t>(i)] == kNoProc) {
        return std::nullopt;
      }
    }
    return g;
  }

  [[nodiscard]] std::optional<DataGrouping> run() const {
    const int W = prefix_.numWindows();
    std::vector<WindowId> singleton;
    for (WindowId w = 0; w < W; ++w) singleton.push_back(w);
    std::optional<DataGrouping> current = withCenters(std::move(singleton));
    if (!current.has_value()) return std::nullopt;
    Cost currentCost = groupingCost(*current, prefix_, model_);
    if (W <= 1) return current;

    std::vector<WindowId> confirmed;
    WindowId start = 0;
    for (WindowId j = 1; j < W; ++j) {
      std::vector<WindowId> proposal = confirmed;
      proposal.push_back(start);
      for (WindowId w = j + 1; w < W; ++w) proposal.push_back(w);
      const std::optional<DataGrouping> candidate =
          withCenters(std::move(proposal));
      if (candidate.has_value()) {
        const Cost candidateCost = groupingCost(*candidate, prefix_, model_);
        if (candidateCost <= currentCost) {
          current = candidate;
          currentCost = candidateCost;
          continue;
        }
      }
      confirmed.push_back(start);
      start = j;
    }
    return current;
  }

 private:
  [[nodiscard]] std::pair<WindowId, WindowId> groupRange(
      const DataGrouping& g, int i) const {
    const WindowId begin = g.starts[static_cast<std::size_t>(i)];
    const WindowId end =
        (i + 1 < g.numGroups()) ? g.starts[static_cast<std::size_t>(i + 1)]
                                : static_cast<WindowId>(prefix_.numWindows());
    return {begin, end};
  }

  [[nodiscard]] ProcId nearestAvailable(ProcId from, const DataGrouping& g,
                                        int i) const {
    const auto [begin, end] = groupRange(g, i);
    const int m = prefix_.numProcs();
    std::vector<Cost> costs(static_cast<std::size_t>(m));
    for (ProcId p = 0; p < m; ++p) {
      costs[static_cast<std::size_t>(p)] = model_.moveCost(from, p);
    }
    const CenterList list(costs);
    for (const ProcId p : list.order()) {
      if (roomEverywhere(p, begin, end)) return p;
    }
    return kNoProc;
  }

  const WindowCostPrefix& prefix_;
  const CostModel& model_;
  const std::vector<OccupancyMap>& occupancy_;
};

DataSchedule groupedGomcds(const WindowedRefs& refs, const CostModel& model,
                           const SchedulerOptions& options) {
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const Cost beta = model.params().hopCost * model.params().moveVolume;
  DataSchedule schedule(refs.numData(), W);
  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));

  for (const DataId d : dataVisitOrder(refs, options.order)) {
    const WindowCostPrefix prefix(refs, model, d);
    const SortingGrouper grouper(prefix, model, occupancy);
    const std::optional<DataGrouping> grouping = grouper.run();
    if (!grouping.has_value()) {
      throw std::runtime_error(
          "scheduleGroupedGomcds: capacity infeasible for a datum");
    }
    const int g = grouping->numGroups();
    const auto groupEnd = [&](int i) -> WindowId {
      return (i + 1 < g) ? grouping->starts[static_cast<std::size_t>(i + 1)]
                         : static_cast<WindowId>(W);
    };
    std::vector<Cost> nodeCosts;
    for (int i = 0; i < g; ++i) {
      for (ProcId p = 0; p < grid.size(); ++p) {
        const WindowId begin = grouping->starts[static_cast<std::size_t>(i)];
        nodeCosts.push_back(grouper.roomEverywhere(p, begin, groupEnd(i))
                                ? prefix.segment(begin, groupEnd(i), p)
                                : kInfiniteCost);
      }
    }
    const LayeredPath path =
        LayeredDagSolver::solveManhattanFlat(grid, g, nodeCosts, beta);
    if (!path.feasible()) {
      throw std::runtime_error(
          "scheduleGroupedGomcds: no feasible center path");
    }
    for (int i = 0; i < g; ++i) {
      const auto c =
          static_cast<ProcId>(path.nodes[static_cast<std::size_t>(i)]);
      for (WindowId w = grouping->starts[static_cast<std::size_t>(i)];
           w < groupEnd(i); ++w) {
        occupancy[static_cast<std::size_t>(w)].tryPlace(c);
        schedule.setCenter(d, w, c);
      }
    }
  }
  return schedule;
}

DataSchedule groupedLomcds(const WindowedRefs& refs, const CostModel& model,
                           const SchedulerOptions& options) {
  const int W = refs.numWindows();
  DataSchedule schedule(refs.numData(), W);
  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W),
      OccupancyMap(model.grid(), options.capacity));

  for (const DataId d : dataVisitOrder(refs, options.order)) {
    const WindowCostPrefix prefix(refs, model, d);
    const SortingGrouper grouper(prefix, model, occupancy);
    const std::optional<DataGrouping> grouping = grouper.run();
    if (!grouping.has_value()) {
      throw std::runtime_error(
          "scheduleGroupedLomcds: capacity infeasible for a datum");
    }
    const int g = grouping->numGroups();
    for (int i = 0; i < g; ++i) {
      const WindowId begin = grouping->starts[static_cast<std::size_t>(i)];
      const WindowId end =
          (i + 1 < g) ? grouping->starts[static_cast<std::size_t>(i + 1)] : W;
      const ProcId c = grouping->centers[static_cast<std::size_t>(i)];
      for (WindowId w = begin; w < end; ++w) {
        occupancy[static_cast<std::size_t>(w)].tryPlace(c);
        schedule.setCenter(d, w, c);
      }
    }
  }
  return schedule;
}

}  // namespace reference

/// Runs a scheduler, returning its schedule or the message it threw.
template <class Fn>
std::pair<std::optional<DataSchedule>, std::string> outcome(const Fn& fn) {
  try {
    return {fn(), ""};
  } catch (const std::runtime_error& e) {
    return {std::nullopt, e.what()};
  }
}

/// Asserts two outcomes agree: identical centers, or the same error.
void expectSameOutcome(
    const std::pair<std::optional<DataSchedule>, std::string>& expect,
    const std::pair<std::optional<DataSchedule>, std::string>& actual,
    const std::string& label) {
  ASSERT_EQ(expect.first.has_value(), actual.first.has_value())
      << label << ": reference threw \"" << expect.second
      << "\", production threw \"" << actual.second << "\"";
  if (!expect.first.has_value()) {
    EXPECT_EQ(actual.second, expect.second) << label;
    return;
  }
  const DataSchedule& a = *expect.first;
  const DataSchedule& b = *actual.first;
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(b.center(d, w), a.center(d, w))
          << label << ": datum " << d << " window " << w;
    }
  }
}

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

TEST(WindowCostPrefix, SegmentsMatchMergedRefs) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(61);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 12, 15);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  for (DataId d = 0; d < refs.numData(); ++d) {
    const WindowCostPrefix prefix(refs, model, d);
    for (WindowId b = 0; b < refs.numWindows(); ++b) {
      for (WindowId e = b + 1; e <= refs.numWindows(); ++e) {
        const auto merged = refs.mergedRefs(d, b, e);
        for (ProcId p = 0; p < g.size(); ++p) {
          ASSERT_EQ(prefix.segment(b, e, p), model.serveCost(merged, p));
        }
      }
    }
  }
}

TEST(WindowCostPrefix, BestSegmentCenterIsArgmin) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(62);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 8, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  const WindowCostPrefix prefix(refs, model, 0);
  const BestCenter best = prefix.bestSegmentCenter(0, 4);
  for (ProcId p = 0; p < g.size(); ++p) {
    EXPECT_LE(best.cost, prefix.segment(0, 4, p));
  }
}

TEST(Grouping, SingletonGroupingIsLomcds) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(63);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 9, 15);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  const WindowCostPrefix prefix(refs, model, 0);
  const DataGrouping s = singletonGrouping(prefix);
  EXPECT_EQ(s.numGroups(), 3);
  for (WindowId w = 0; w < 3; ++w) {
    EXPECT_EQ(s.starts[static_cast<std::size_t>(w)], w);
    if (prefix.segmentWeight(w, w + 1) > 0) {
      EXPECT_EQ(s.centers[static_cast<std::size_t>(w)],
                prefix.bestSegmentCenter(w, w + 1).proc);
    }
  }
}

TEST(Grouping, GreedyNeverIncreasesCost) {
  // DESIGN.md invariant 6 (first half): Algorithm 3's output costs no more
  // than the LOMCDS singleton partition it starts from.
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(64);
  for (int trial = 0; trial < 10; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 20);
    const WindowedRefs refs = refsFromTrace(t, g, 8);
    for (DataId d = 0; d < refs.numData(); d += 3) {
      const WindowCostPrefix prefix(refs, model, d);
      const Cost before =
          groupingCost(singletonGrouping(prefix), prefix, model);
      const Cost after =
          groupingCost(greedyGrouping(prefix, model), prefix, model);
      EXPECT_LE(after, before);
    }
  }
}

TEST(Grouping, OptimalNeverWorseThanGreedy) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(65);
  for (int trial = 0; trial < 10; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 16, 12);
    const WindowedRefs refs = refsFromTrace(t, g, 8);
    for (DataId d = 0; d < refs.numData(); d += 2) {
      const WindowCostPrefix prefix(refs, model, d);
      const Cost greedy =
          groupingCost(greedyGrouping(prefix, model), prefix, model);
      const Cost optimal =
          groupingCost(optimalGrouping(prefix, model), prefix, model);
      EXPECT_LE(optimal, greedy);
    }
  }
}

TEST(Grouping, OptimalMatchesExhaustivePartitionEnumeration) {
  // Small W: enumerate all 2^(W-1) partitions directly.
  const Grid g(2, 3);
  const CostModel model(g);
  testutil::Rng rng(66);
  const int W = 5;
  for (int trial = 0; trial < 10; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, W, 8);
    const WindowedRefs refs = refsFromTrace(t, g, W);
    for (DataId d = 0; d < refs.numData(); ++d) {
      const WindowCostPrefix prefix(refs, model, d);
      Cost best = kInfiniteCost;
      for (int mask = 0; mask < (1 << (W - 1)); ++mask) {
        std::vector<WindowId> starts = {0};
        for (int b = 0; b < W - 1; ++b) {
          if (mask & (1 << b)) starts.push_back(b + 1);
        }
        DataGrouping cand;
        cand.starts = starts;
        for (std::size_t i = 0; i < starts.size(); ++i) {
          const WindowId e = (i + 1 < starts.size())
                                 ? starts[i + 1]
                                 : static_cast<WindowId>(W);
          cand.centers.push_back(
              prefix.bestSegmentCenter(starts[i], e).proc);
        }
        best = std::min(best, groupingCost(cand, prefix, model));
      }
      const Cost viaDp =
          groupingCost(optimalGrouping(prefix, model), prefix, model);
      // The DP also optimises the center jointly with the grouping, so it
      // can only be <= the best-centers-per-segment enumeration.
      EXPECT_LE(viaDp, best);
    }
  }
}

TEST(Grouping, MergesIdenticalWindowsCompletely) {
  // If every window references the same processors, one group is optimal.
  const Grid g(4, 4);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(1));
  for (StepId s = 0; s < 6; ++s) t.add(s, g.id(1, 2), 0, 3);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 6);
  const WindowCostPrefix prefix(refs, model, 0);
  const DataGrouping grouped = greedyGrouping(prefix, model);
  EXPECT_EQ(grouped.numGroups(), 1);
  EXPECT_EQ(grouped.centers[0], g.id(1, 2));
}

TEST(Grouping, Theorem3TwoWindowMergeNeverHelps) {
  // Paper Theorem 3: if p1 and p2 are the *closest pair* of local-optimal
  // centers of two consecutive windows, merging the two windows cannot
  // reduce the total communication cost. The premise matters: local optima
  // form plateaus, and the theorem holds for the plateau points closest to
  // each other (and unit movement volume, the paper's model).
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(67);

  const auto argminSet = [](const std::vector<Cost>& costs) {
    const Cost best = *std::min_element(costs.begin(), costs.end());
    std::vector<ProcId> out;
    for (ProcId p = 0; p < static_cast<ProcId>(costs.size()); ++p) {
      if (costs[static_cast<std::size_t>(p)] == best) out.push_back(p);
    }
    return out;
  };

  for (int trial = 0; trial < 200; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 2, 10);
    const WindowedRefs refs =
        WindowedRefs(t, WindowPartition::perStep(2), g);
    for (DataId d = 0; d < refs.numData(); ++d) {
      if (refs.windowWeight(d, 0) == 0 || refs.windowWeight(d, 1) == 0) {
        continue;  // theorem assumes both windows reference the datum
      }
      const WindowCostPrefix prefix(refs, model, d);
      const std::vector<Cost> f0 =
          separableCenterCosts(model, refs.refs(d, 0));
      const std::vector<Cost> f1 =
          separableCenterCosts(model, refs.refs(d, 1));
      // Closest pair over the two argmin plateaus.
      int bestDist = INT32_MAX;
      for (const ProcId a : argminSet(f0)) {
        for (const ProcId b : argminSet(f1)) {
          bestDist = std::min(bestDist, g.manhattan(a, b));
        }
      }
      const Cost split = f0[static_cast<std::size_t>(
                              argminSet(f0).front())] +
                         f1[static_cast<std::size_t>(
                             argminSet(f1).front())] +
                         model.params().moveVolume * bestDist;
      const Cost merged = prefix.bestSegmentCenter(0, 2).cost;
      EXPECT_GE(merged, split);
    }
  }
}

TEST(GroupedLomcds, ScheduleMatchesGroupingCost) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(68);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 25);
  const WindowedRefs refs = refsFromTrace(t, g, 8);
  const DataSchedule s = scheduleGroupedLomcds(refs, model);
  const EvalResult r = evaluateSchedule(s, refs, model);
  Cost expect = 0;
  for (DataId d = 0; d < refs.numData(); ++d) {
    const WindowCostPrefix prefix(refs, model, d);
    expect += groupingCost(greedyGrouping(prefix, model), prefix, model);
  }
  EXPECT_EQ(r.aggregate.total(), expect);
}

TEST(GroupedLomcds, GomcdsSubsumesGrouping) {
  // DESIGN.md invariant 6 (second half): GOMCDS can always emulate any
  // grouping by holding still, so its cost is <= grouped LOMCDS.
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(69);
  for (int trial = 0; trial < 6; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 25);
    const WindowedRefs refs = refsFromTrace(t, g, 8);
    const Cost grouped =
        evaluateSchedule(scheduleGroupedLomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost gomcds =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model)
            .aggregate.total();
    EXPECT_LE(gomcds, grouped);
  }
}

TEST(GroupedLomcds, NeverWorseThanPlainLomcds) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(70);
  for (int trial = 0; trial < 6; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 25);
    const WindowedRefs refs = refsFromTrace(t, g, 8);
    const Cost grouped =
        evaluateSchedule(scheduleGroupedLomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost plain =
        evaluateSchedule(scheduleLomcds(refs, model), refs, model)
            .aggregate.total();
    EXPECT_LE(grouped, plain);
  }
}

TEST(GroupedLomcds, CapacityRespected) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(71);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 12, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  SchedulerOptions opts;
  opts.capacity = 3;
  const DataSchedule s = scheduleGroupedLomcds(refs, model, opts);
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(s.respectsCapacity(g, 3));
}

TEST(GroupedGomcds, SandwichedBetweenGomcdsAndGroupedLomcds) {
  // Uncapacitated: plain GOMCDS <= GOMCDS-over-groups <= LOMCDS-over-
  // groups (the DP over the same groups includes the greedy center
  // choice as one path).
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(73);
  for (int trial = 0; trial < 6; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 25);
    const WindowedRefs refs = refsFromTrace(t, g, 8);
    const Cost fine =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost groupedDp =
        evaluateSchedule(scheduleGroupedGomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost groupedGreedy =
        evaluateSchedule(scheduleGroupedLomcds(refs, model), refs, model)
            .aggregate.total();
    EXPECT_LE(fine, groupedDp);
    EXPECT_LE(groupedDp, groupedGreedy);
  }
}

TEST(GroupedGomcds, CapacityRespected) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(74);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 12, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  SchedulerOptions opts;
  opts.capacity = 3;
  const DataSchedule s = scheduleGroupedGomcds(refs, model, opts);
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(s.respectsCapacity(g, 3));
}

TEST(GroupedGomcds, ConstantWithinGroups) {
  // The schedule must be piecewise constant: center changes only at group
  // boundaries, i.e. the number of distinct runs per datum is bounded by
  // the grouping's group count.
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(75);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 16, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 8);
  const DataSchedule s = scheduleGroupedGomcds(refs, model);
  for (DataId d = 0; d < refs.numData(); ++d) {
    const WindowCostPrefix prefix(refs, model, d);
    const DataGrouping grouping = greedyGrouping(prefix, model);
    int runs = 1;
    for (WindowId w = 1; w < refs.numWindows(); ++w) {
      if (s.center(d, w) != s.center(d, w - 1)) ++runs;
    }
    EXPECT_LE(runs, grouping.numGroups());
  }
}

TEST(GroupedLomcds, OptimalDpVariantRuns) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(72);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 12, 15);
  const WindowedRefs refs = refsFromTrace(t, g, 6);
  const Cost greedy =
      evaluateSchedule(scheduleGroupedLomcds(refs, model, {},
                                             GroupingMethod::kGreedy),
                       refs, model)
          .aggregate.total();
  const Cost optimal =
      evaluateSchedule(scheduleGroupedLomcds(refs, model, {},
                                             GroupingMethod::kOptimalDp),
                       refs, model)
          .aggregate.total();
  EXPECT_LE(optimal, greedy);
}


/// Runs both grouped schedulers and their references on `refs` under
/// capacities from unlimited down to the feasibility edge (the fewest slots
/// that hold every datum in a window) and one below it, in both data
/// orders, asserting identical centers or identical errors. Returns how
/// many runs were feasible and infeasible.
std::pair<int, int> checkAgainstReference(const WindowedRefs& refs,
                                          const CostModel& model,
                                          const std::string& label) {
  const Grid& g = model.grid();
  const std::int64_t edge = (refs.numData() + g.size() - 1) / g.size();
  int feasible = 0;
  int infeasible = 0;
  for (const std::int64_t cap :
       {std::int64_t{-1}, 2 * edge, edge + 1, edge, edge - 1}) {
    for (const DataOrder order :
         {DataOrder::kById, DataOrder::kByWeightDesc}) {
      SchedulerOptions opts;
      opts.capacity = cap;
      opts.order = order;
      const std::string run = label + " cap " + std::to_string(cap) +
                              (order == DataOrder::kById ? " by-id"
                                                         : " by-weight");
      const auto gomcds = outcome(
          [&] { return reference::groupedGomcds(refs, model, opts); });
      expectSameOutcome(
          gomcds,
          outcome([&] { return scheduleGroupedGomcds(refs, model, opts); }),
          run + " gomcds");
      const auto lomcds = outcome(
          [&] { return reference::groupedLomcds(refs, model, opts); });
      expectSameOutcome(
          lomcds,
          outcome([&] { return scheduleGroupedLomcds(refs, model, opts); }),
          run + " lomcds");
      for (const bool ok : {gomcds.first.has_value(),
                            lomcds.first.has_value()}) {
        ++(ok ? feasible : infeasible);
      }
    }
  }
  return {feasible, infeasible};
}

TEST(GroupedBitIdentity, MatchesSortingReferenceOnRandomInstances) {
  testutil::Rng rng(1501);
  int feasible = 0;
  int infeasible = 0;
  for (const auto& [rows, cols] : {std::pair{1, 9}, {5, 7}, {8, 8}}) {
    const Grid g(rows, cols);
    const CostModel model(g);
    for (int trial = 0; trial < 3; ++trial) {
      const ReferenceTrace t =
          testutil::randomTrace(rng, g, 6, 6 + trial, 24, 2 * g.size());
      const auto [f, i] = checkAgainstReference(
          refsFromTrace(t, g, 8), model,
          std::to_string(rows) + "x" + std::to_string(cols) + " trial " +
              std::to_string(trial));
      feasible += f;
      infeasible += i;
    }
  }
  // Both sides of the feasibility edge were exercised.
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(GroupedBitIdentity, MatchesSortingReferenceOnSparseTraces) {
  // Few references spread over many windows: most groups are empty, so
  // the neighbour-adoption and nearest-center paths run constantly, and
  // some data are never referenced at all.
  testutil::Rng rng(1502);
  for (const auto& [rows, cols] : {std::pair{1, 9}, {5, 7}, {8, 8}}) {
    const Grid g(rows, cols);
    for (const Cost moveVolume : {Cost{1}, Cost{3}}) {
      const CostModel model(g, CostParams{1, moveVolume});
      for (int trial = 0; trial < 3; ++trial) {
        const ReferenceTrace t =
            testutil::randomTrace(rng, g, 6, 7, 48, 3);
        checkAgainstReference(refsFromTrace(t, g, 16), model,
                              std::to_string(rows) + "x" +
                                  std::to_string(cols) + " move " +
                                  std::to_string(moveVolume) + " trial " +
                                  std::to_string(trial));
      }
    }
  }
}

TEST(GroupedBitIdentity, ZeroBetaPicksSmallestIdNotStayPut) {
  // moveVolume 0 makes every move free (beta == 0): an empty group's
  // nearest center is then the smallest id with room, not the previous
  // center, so the stay-put shortcut must not fire.
  testutil::Rng rng(1503);
  for (const auto& [rows, cols] : {std::pair{1, 9}, {5, 7}, {8, 8}}) {
    const Grid g(rows, cols);
    const CostModel model(g, CostParams{1, 0});
    for (int trial = 0; trial < 3; ++trial) {
      const ReferenceTrace t = testutil::randomTrace(rng, g, 6, 7, 48, 3);
      checkAgainstReference(refsFromTrace(t, g, 16), model,
                            std::to_string(rows) + "x" +
                                std::to_string(cols) + " beta 0 trial " +
                                std::to_string(trial));
    }
  }
}

TEST(GroupedBitIdentity, InfeasibleCapacityThrowsReferenceMessage) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(1504);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 10);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  SchedulerOptions opts;
  opts.capacity = 0;
  const auto gomcds =
      outcome([&] { return scheduleGroupedGomcds(refs, model, opts); });
  const auto lomcds =
      outcome([&] { return scheduleGroupedLomcds(refs, model, opts); });
  EXPECT_EQ(gomcds.second,
            "scheduleGroupedGomcds: capacity infeasible for a datum");
  EXPECT_EQ(lomcds.second,
            "scheduleGroupedLomcds: capacity infeasible for a datum");
  expectSameOutcome(
      outcome([&] { return reference::groupedGomcds(refs, model, opts); }),
      gomcds, "gomcds");
  expectSameOutcome(
      outcome([&] { return reference::groupedLomcds(refs, model, opts); }),
      lomcds, "lomcds");
}

TEST(WindowCostPrefix, SaturatesOnForbiddenProcessors) {
  // A dead processor costs kInfiniteCost in every window; summing eight
  // of those would overflow int64, so every segment covering one must
  // read exactly kInfiniteCost while alive processors keep exact sums.
  const Grid g(4, 4);
  FaultMap faults(g);
  faults.killProc(5);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  testutil::Rng rng(1505);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 20);
  const WindowedRefs refs =
      WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), 8), g)
          .withProcsMasked(faults.deadProcMask());
  for (DataId d = 0; d < refs.numData(); ++d) {
    const WindowCostPrefix prefix(refs, model, d);
    for (WindowId b = 0; b < 8; ++b) {
      for (WindowId e = b + 1; e <= 8; ++e) {
        ASSERT_EQ(prefix.segment(b, e, 5), kInfiniteCost);
        for (const ProcId p : {0, 6, 15}) {
          ASSERT_EQ(prefix.segment(b, e, p),
                    model.serveCost(refs.mergedRefs(d, b, e), p));
        }
      }
    }
  }
}

TEST(GroupedFaults, PaperKernelsAvoidDeadProcessors) {
  // Both grouped schedulers on every paper kernel over an 8x8 mesh with
  // three dead processors (processor 0 among them) must pass the fault
  // verifier: no datum on a dead processor, every serve and move routable.
  const Grid g(8, 8);
  FaultMap faults(g);
  for (const ProcId p : {0, 27, 45}) faults.killProc(p);
  for (const PaperBenchmark b : allPaperBenchmarks()) {
    const ReferenceTrace t = makePaperBenchmark(b, g, 12);
    const Experiment exp(t, g, faults);
    for (const Method m : {Method::kGroupedGomcds, Method::kGroupedLomcds}) {
      const DataSchedule s = exp.schedule(m);
      EXPECT_TRUE(verifySchedule(s, g, exp.capacity()).ok())
          << toString(b) << " " << toString(m);
      const VerifyReport report =
          verifyScheduleFaults(s, exp.refs(), exp.costModel());
      EXPECT_TRUE(report.ok())
          << toString(b) << " " << toString(m) << ": "
          << (report.ok() ? "" : report.issues.front().detail);
    }
  }
}

TEST(GroupedFaults, UnreferencedDatumAvoidsDeadProcessorZero) {
  // A datum no window references settles near processor 0 on a healthy
  // mesh; with 0 dead it must land on an alive processor instead.
  const Grid g(3, 3);
  FaultMap faults(g);
  faults.killProc(0);
  ReferenceTrace t(DataSpace::singleSquare(2));
  for (StepId s = 0; s < 8; ++s) t.add(s, g.id(2, 2), 0, 1);
  t.finalize();
  const Experiment exp(t, g, faults);
  for (const Method m : {Method::kGroupedGomcds, Method::kGroupedLomcds}) {
    const DataSchedule s = exp.schedule(m);
    for (DataId d = 0; d < s.numData(); ++d) {
      for (WindowId w = 0; w < s.numWindows(); ++w) {
        EXPECT_NE(s.center(d, w), 0) << toString(m) << " datum " << d;
      }
    }
    EXPECT_TRUE(verifyScheduleFaults(s, exp.refs(), exp.costModel()).ok());
  }
}

TEST(GroupedFaults, UnreachableCentersAreNeverChosen) {
  // Processor 2 of a 1x5 row is dead, cutting {0, 1} off from {3, 4}.
  // Every datum is read only from processor 0, so 3 and 4 price at
  // kInfiniteCost even though they have room; with one slot per
  // processor the third datum has no allowed center and must be refused,
  // not parked on the far side of the cut.
  const Grid g(1, 5);
  FaultMap faults(g);
  faults.killProc(2);
  ReferenceTrace t(DataSpace::singleSquare(2));
  for (StepId s = 0; s < 8; ++s) {
    for (DataId d = 0; d < 4; ++d) t.add(s, 0, d, 1);
  }
  t.finalize();
  PipelineConfig config;
  config.capacity = 1;
  const Experiment exp(t, g, faults, config);
  for (const Method m : {Method::kGroupedGomcds, Method::kGroupedLomcds}) {
    EXPECT_THROW((void)exp.schedule(m), std::runtime_error) << toString(m);
  }
}

TEST(GroupedFaults, FaultCapacityLimitsHold) {
  // Processor 4, the middle of a 3x3 mesh, is alive but capped at zero
  // slots; every reference comes from it, so it is every datum's best
  // center and must still stay empty.
  const Grid g(3, 3);
  FaultMap faults(g);
  faults.limitCapacity(4, 0);
  ReferenceTrace t(DataSpace::singleSquare(2));
  for (StepId s = 0; s < 8; ++s) {
    for (DataId d = 0; d < 4; ++d) t.add(s, 4, d, 1 + d);
  }
  t.finalize();
  const Experiment exp(t, g, faults);
  for (const Method m : {Method::kGroupedGomcds, Method::kGroupedLomcds}) {
    const DataSchedule s = exp.schedule(m);
    for (DataId d = 0; d < s.numData(); ++d) {
      for (WindowId w = 0; w < s.numWindows(); ++w) {
        EXPECT_NE(s.center(d, w), 4) << toString(m) << " datum " << d;
      }
    }
  }
}

}  // namespace
}  // namespace pimsched
