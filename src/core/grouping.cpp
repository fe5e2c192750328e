#include "core/grouping.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/gomcds_detail.hpp"
#include "core/placement.hpp"
#include "graph/layered_dag.hpp"
#include "obs/obs.hpp"

namespace pimsched {

WindowCostPrefix::WindowCostPrefix(const WindowedRefs& refs,
                                   const CostModel& model, DataId d)
    : numWindows_(refs.numWindows()), numProcs_(refs.numProcs()) {
  const std::size_t m = static_cast<std::size_t>(numProcs_);
  prefix_.resize(static_cast<std::size_t>(numWindows_ + 1) * m);
  std::fill_n(prefix_.begin(), m, 0);
  weightPrefix_.assign(static_cast<std::size_t>(numWindows_ + 1), 0);
  for (WindowId w = 0; w < numWindows_; ++w) {
    // The window's costs land in its prefix row, then accumulate in place.
    const Cost* prev = prefix_.data() + index(w, 0);
    Cost* row = prefix_.data() + index(w + 1, 0);
    separableCenterCostsInto(model, refs.refs(d, w), std::span<Cost>(row, m));
    for (std::size_t p = 0; p < m; ++p) {
      // Rows before the first infinite term count zero, which is what the
      // lazily zero-filled count table holds for them.
      const bool infinite = row[p] >= kInfiniteCost;
      if (infinite && infinite_.empty()) infinite_.assign(prefix_.size(), 0);
      row[p] = prev[p] + (infinite ? 0 : row[p]);
      if (!infinite_.empty()) {
        infinite_[index(w + 1, 0) + p] =
            infinite_[index(w, 0) + p] + (infinite ? 1 : 0);
      }
    }
    weightPrefix_[static_cast<std::size_t>(w + 1)] =
        weightPrefix_[static_cast<std::size_t>(w)] +
        refs.windowWeight(d, w);
  }
}

BestCenter WindowCostPrefix::bestSegmentCenter(WindowId begin,
                                               WindowId end) const {
  BestCenter best{0, segment(begin, end, 0)};
  for (ProcId p = 1; p < numProcs_; ++p) {
    const Cost c = segment(begin, end, p);
    if (c < best.cost) best = BestCenter{p, c};
  }
  return best;
}

Cost groupingCost(const DataGrouping& grouping,
                  const WindowCostPrefix& prefix, const CostModel& model) {
  Cost total = 0;
  const int g = grouping.numGroups();
  for (int i = 0; i < g; ++i) {
    const auto [begin, end] = grouping.range(i, prefix.numWindows());
    const ProcId c = grouping.centers[static_cast<std::size_t>(i)];
    total = satAdd(total, prefix.segment(begin, end, c));
    if (i > 0) {
      const ProcId prev = grouping.centers[static_cast<std::size_t>(i - 1)];
      total = satAdd(total, model.moveCost(prev, c));
    }
  }
  return total;
}

namespace {

/// Empty (zero-weight) groups are served for free anywhere, so their best
/// center is wherever the datum already is: holding still costs nothing,
/// while the raw argmin (processor 0) would charge phantom movement. A
/// leading run of empty groups adopts the first referenced group's center.
void adoptNeighborCentersForEmptyGroups(DataGrouping& g,
                                        const WindowCostPrefix& prefix) {
  const int n = g.numGroups();
  int firstNonEmpty = -1;
  for (int i = 0; i < n; ++i) {
    const auto [begin, end] = g.range(i, prefix.numWindows());
    if (prefix.segmentWeight(begin, end) > 0) {
      firstNonEmpty = i;
      break;
    }
  }
  if (firstNonEmpty < 0) return;  // never referenced: any center works
  for (int i = firstNonEmpty - 1; i >= 0; --i) {
    g.centers[static_cast<std::size_t>(i)] =
        g.centers[static_cast<std::size_t>(i + 1)];
  }
  for (int i = firstNonEmpty + 1; i < n; ++i) {
    const auto [begin, end] = g.range(i, prefix.numWindows());
    if (prefix.segmentWeight(begin, end) == 0) {
      g.centers[static_cast<std::size_t>(i)] =
          g.centers[static_cast<std::size_t>(i - 1)];
    }
  }
}

/// Rebuilds group centers (argmin of each merged segment, empty groups
/// staying put) for a given set of group starts.
DataGrouping withRecomputedCenters(std::vector<WindowId> starts,
                                   const WindowCostPrefix& prefix) {
  DataGrouping g;
  g.starts = std::move(starts);
  const int n = g.numGroups();
  g.centers.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto [begin, end] = g.range(i, prefix.numWindows());
    g.centers[static_cast<std::size_t>(i)] =
        prefix.bestSegmentCenter(begin, end).proc;
  }
  adoptNeighborCentersForEmptyGroups(g, prefix);
  return g;
}

}  // namespace

DataGrouping singletonGrouping(const WindowCostPrefix& prefix) {
  std::vector<WindowId> starts;
  for (WindowId w = 0; w < prefix.numWindows(); ++w) starts.push_back(w);
  return withRecomputedCenters(std::move(starts), prefix);
}

DataGrouping greedyGrouping(const WindowCostPrefix& prefix,
                            const CostModel& model) {
  const int W = prefix.numWindows();
  DataGrouping current = singletonGrouping(prefix);
  Cost currentCost = groupingCost(current, prefix, model);
  if (W <= 1) return current;

  // Confirmed group starts strictly before `start`; the group under
  // construction covers [start, j]; windows after j are singletons.
  std::vector<WindowId> confirmed;  // starts of groups before `start`
  WindowId start = 0;
  for (WindowId j = 1; j < W; ++j) {
    std::vector<WindowId> proposal = confirmed;
    proposal.push_back(start);
    for (WindowId w = j + 1; w < W; ++w) proposal.push_back(w);
    const DataGrouping candidate =
        withRecomputedCenters(std::move(proposal), prefix);
    const Cost candidateCost = groupingCost(candidate, prefix, model);
    if (candidateCost <= currentCost) {
      current = candidate;
      currentCost = candidateCost;
    } else {
      confirmed.push_back(start);
      start = j;
    }
  }
  return current;
}

DataGrouping optimalGrouping(const WindowCostPrefix& prefix,
                             const CostModel& model) {
  const int W = prefix.numWindows();
  const int m = prefix.numProcs();
  const Grid& grid = model.grid();
  const Cost beta = model.params().hopCost * model.params().moveVolume;

  // dp[w][p]: min cost covering windows [0, w] with the last group ending
  // at w and centred at p. best[s][p] = min_q dp[s-1][q] + move(q, p)
  // (0 when s == 0), computed with the chamfer relaxation per s.
  std::vector<std::vector<Cost>> dp(
      static_cast<std::size_t>(W),
      std::vector<Cost>(static_cast<std::size_t>(m), kInfiniteCost));
  std::vector<std::vector<Cost>> best(
      static_cast<std::size_t>(W),
      std::vector<Cost>(static_cast<std::size_t>(m), 0));
  std::vector<std::vector<WindowId>> choice(
      static_cast<std::size_t>(W),
      std::vector<WindowId>(static_cast<std::size_t>(m), 0));

  for (int w = 0; w < W; ++w) {
    if (w > 0) {
      manhattanMinPlusInto(grid, dp[static_cast<std::size_t>(w - 1)], beta,
                           best[static_cast<std::size_t>(w)]);
    }
    for (ProcId p = 0; p < m; ++p) {
      Cost bestCost = kInfiniteCost;
      WindowId bestStart = 0;
      for (WindowId s = 0; s <= w; ++s) {
        const Cost entry = (s == 0) ? 0
                                    : best[static_cast<std::size_t>(s)]
                                          [static_cast<std::size_t>(p)];
        const Cost c = satAdd(entry, prefix.segment(s, w + 1, p));
        if (c < bestCost) {
          bestCost = c;
          bestStart = s;
        }
      }
      dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] = bestCost;
      choice[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] =
          bestStart;
    }
  }

  // Reconstruct backward.
  const std::vector<Cost>& last = dp[static_cast<std::size_t>(W - 1)];
  ProcId p = static_cast<ProcId>(
      std::min_element(last.begin(), last.end()) - last.begin());
  std::vector<WindowId> starts;
  std::vector<ProcId> centers;
  int w = W - 1;
  while (true) {
    const WindowId s =
        choice[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)];
    starts.push_back(s);
    centers.push_back(p);
    if (s == 0) break;
    // Predecessor center: the q attaining best[s][p].
    const Cost target =
        best[static_cast<std::size_t>(s)][static_cast<std::size_t>(p)];
    ProcId q = kNoProc;
    for (ProcId cand = 0; cand < m; ++cand) {
      if (satAdd(dp[static_cast<std::size_t>(s - 1)]
                   [static_cast<std::size_t>(cand)],
                 beta * grid.manhattan(cand, p)) == target) {
        q = cand;
        break;
      }
    }
    if (q == kNoProc) {
      throw std::logic_error("optimalGrouping: reconstruction failed");
    }
    w = s - 1;
    p = q;
  }
  std::reverse(starts.begin(), starts.end());
  std::reverse(centers.begin(), centers.end());
  return DataGrouping{std::move(starts), std::move(centers)};
}

namespace {

/// Capacity-aware variant of the greedy grouper used by both grouped
/// schedulers: group centers are restricted to processors with a free slot
/// in every window of the group (given the occupancy the Placement holds
/// from previously scheduled data), so Algorithm 3's merge decisions are
/// made against the costs that will actually be realised.
///
/// One instance serves a whole scheduling call. Occupancy does not change
/// while one datum is grouped, so a segment's center is a pure function of
/// its window range and is memoized per datum in a (W+1)^2 table.
class CapacityAwareGrouper {
 public:
  CapacityAwareGrouper(const CostModel& model, const Placement& placement)
      : model_(model),
        placement_(placement),
        beta_(model.params().hopCost * model.params().moveVolume) {
    // Never-referenced data settle near processor 0, or near the first
    // processor the model allows when 0 is dead.
    while (anchor_ + 1 < model.grid().size() &&
           model.centerForbidden(anchor_)) {
      ++anchor_;
    }
  }

  /// Starts grouping the datum `prefix` describes; the occupancy must not
  /// change until the next call.
  void start(const WindowCostPrefix& prefix) {
    prefix_ = &prefix;
    memo_.assign(static_cast<std::size_t>(prefix.numWindows() + 1) *
                     static_cast<std::size_t>(prefix.numWindows() + 1),
                 kUnknown);
  }

  /// Greedy Algorithm 3 for the current datum against realised (capacity-
  /// restricted) costs, written into `out`. False when some group has no
  /// feasible center.
  [[nodiscard]] bool run(DataGrouping& out) {
    const WindowCostPrefix& prefix = *prefix_;
    const int W = prefix.numWindows();
    out.starts.resize(static_cast<std::size_t>(W));
    std::iota(out.starts.begin(), out.starts.end(), 0);
    if (!withCenters(out)) return false;
    if (W <= 1) return true;
    Cost currentCost = groupingCost(out, prefix, model_);

    // `out` holds confirmed groups, then the group under construction
    // starting at out.starts[confirmed] and covering [.., j), then one
    // singleton per window from j on. The proposal merges window j into
    // the group under construction.
    std::size_t confirmed = 0;
    for (WindowId j = 1; j < W; ++j) {
      candidate_.starts.assign(
          out.starts.begin(),
          out.starts.begin() + static_cast<std::ptrdiff_t>(confirmed + 1));
      for (WindowId w = j + 1; w < W; ++w) candidate_.starts.push_back(w);
      if (withCenters(candidate_)) {
        const Cost candidateCost = groupingCost(candidate_, prefix, model_);
        if (candidateCost <= currentCost) {
          std::swap(out, candidate_);
          currentCost = candidateCost;
          continue;
        }
      }
      ++confirmed;  // window j starts the next group under construction
    }
    return true;
  }

  /// First processor of the segment's ascending-cost list with room in
  /// every window of [begin, end); kNoProc when none exists. Memoized.
  [[nodiscard]] ProcId segmentCenter(WindowId begin, WindowId end) {
    ProcId& center =
        memo_[static_cast<std::size_t>(begin) *
                  static_cast<std::size_t>(prefix_->numWindows() + 1) +
              static_cast<std::size_t>(end)];
    if (center == kUnknown) {
      center = placement_.argminWithRoom(begin, end, [&](ProcId p) {
        return prefix_->segment(begin, end, p);
      });
    }
    return center;
  }

 private:
  static constexpr ProcId kUnknown = -2;

  /// First processor of the ascending list of moveCost(from, .) with room
  /// in every window of the empty group [begin, end). With beta > 0 only
  /// `from` itself is at distance 0, so when it qualifies it is the
  /// answer; with beta == 0 every cost ties and the scan picks the
  /// smallest qualifying id. A finite move reaches an alive processor,
  /// which serves an empty group for 0, so no segment check is needed.
  [[nodiscard]] ProcId nearestAvailable(ProcId from, WindowId begin,
                                        WindowId end) const {
    if (beta_ > 0 && model_.moveCost(from, from) == 0 &&
        placement_.roomEverywhere(from, begin, end)) {
      return from;
    }
    return placement_.argminWithRoom(begin, end, [&](ProcId p) {
      return model_.moveCost(from, p);
    });
  }

  /// Centers for g.starts; empty groups stay at a neighbour's center when
  /// it has room, otherwise take the nearest available processor. False if
  /// any group has no feasible center.
  [[nodiscard]] bool withCenters(DataGrouping& g) {
    const int n = g.numGroups();
    const auto range = [&](int i) { return g.range(i, prefix_->numWindows()); };
    g.centers.assign(static_cast<std::size_t>(n), kNoProc);
    for (int i = 0; i < n; ++i) {
      const auto [begin, end] = range(i);
      if (prefix_->segmentWeight(begin, end) > 0) {
        g.centers[static_cast<std::size_t>(i)] = segmentCenter(begin, end);
        if (g.centers[static_cast<std::size_t>(i)] == kNoProc) return false;
      }
    }
    // Empty groups adopt the nearest feasible neighbour center: forward
    // pass from the previous group, then a backward pass for a leading
    // run of empty groups.
    for (int i = 1; i < n; ++i) {
      ProcId& c = g.centers[static_cast<std::size_t>(i)];
      const ProcId neighbor = g.centers[static_cast<std::size_t>(i - 1)];
      if (c != kNoProc || neighbor == kNoProc) continue;
      const auto [begin, end] = range(i);
      c = nearestAvailable(neighbor, begin, end);
      if (c == kNoProc) return false;
    }
    for (int i = n - 1; i >= 0; --i) {
      ProcId& c = g.centers[static_cast<std::size_t>(i)];
      if (c != kNoProc) continue;
      const ProcId neighbor =
          i + 1 < n ? g.centers[static_cast<std::size_t>(i + 1)] : anchor_;
      const auto [begin, end] = range(i);
      c = nearestAvailable(neighbor, begin, end);
      if (c == kNoProc) return false;
    }
    return true;
  }

  const CostModel& model_;
  const Placement& placement_;
  Cost beta_;
  ProcId anchor_ = 0;
  const WindowCostPrefix* prefix_ = nullptr;
  std::vector<ProcId> memo_;  ///< [begin * (W + 1) + end] -> segment center
  DataGrouping candidate_;
};

/// Places datum d on center c in every window of group i.
void placeGroup(const DataGrouping& g, int i, ProcId c, DataId d,
                int numWindows, Placement& placement) {
  const auto [begin, end] = g.range(i, numWindows);
  for (WindowId w = begin; w < end; ++w) placement.place(d, w, c);
}

}  // namespace

DataSchedule scheduleGroupedGomcds(const WindowedRefs& refs,
                                   const CostModel& model,
                                   const SchedulerOptions& options) {
  PIMSCHED_SCOPED_TIMER("sched.grouped_gomcds");
  const int W = refs.numWindows();
  const std::size_t m = static_cast<std::size_t>(model.grid().size());
  Placement placement(refs, model, options.capacity, options.order);
  CapacityAwareGrouper grouper(model, placement);
  const detail::LayerKernel kernel(model);
  LayeredDagScratch scratch;
  LayeredPath path;
  CostBuffer nodeCosts;
  DataGrouping grouping;

  for (const DataId d : placement.order()) {
    const WindowCostPrefix prefix(refs, model, d);
    grouper.start(prefix);
    if (!grouper.run(grouping)) {
      placement.fail("scheduleGroupedGomcds", "for a datum");
    }
    const int g = grouping.numGroups();

    // GOMCDS DP over groups: a node is (group, center); serving is the
    // merged segment's cost; a node is forbidden when the center lacks
    // room in any window of the group.
    nodeCosts.resize(static_cast<std::size_t>(g) * m);
    for (int i = 0; i < g; ++i) {
      const auto [begin, end] = grouping.range(i, W);
      Cost* row = nodeCosts.data() + static_cast<std::size_t>(i) * m;
      for (ProcId p = 0; p < static_cast<ProcId>(m); ++p) {
        row[p] = prefix.segment(begin, end, p);
      }
      placement.mask(begin, end, row);
    }
    kernel.solve(g, nodeCosts, scratch, path);
    if (!path.feasible()) {
      placement.fail("scheduleGroupedGomcds", "(no feasible center path)");
    }
    for (int i = 0; i < g; ++i) {
      placeGroup(grouping, i,
                 static_cast<ProcId>(path.nodes[static_cast<std::size_t>(i)]),
                 d, W, placement);
    }
  }
  return placement.finish();
}

DataSchedule scheduleGroupedLomcds(const WindowedRefs& refs,
                                   const CostModel& model,
                                   const SchedulerOptions& options,
                                   GroupingMethod method) {
  PIMSCHED_SCOPED_TIMER("sched.grouped_lomcds");
  const int W = refs.numWindows();
  Placement placement(refs, model, options.capacity, options.order);
  CapacityAwareGrouper grouper(model, placement);
  DataGrouping greedy;

  for (const DataId d : placement.order()) {
    const WindowCostPrefix prefix(refs, model, d);
    grouper.start(prefix);

    if (method == GroupingMethod::kGreedy) {
      // Greedy Algorithm 3, evaluated against the capacity actually left
      // by the data scheduled so far; the chosen centers are feasible by
      // construction.
      if (!grouper.run(greedy)) {
        placement.fail("scheduleGroupedLomcds", "for a datum");
      }
      for (int i = 0; i < greedy.numGroups(); ++i) {
        placeGroup(greedy, i, greedy.centers[static_cast<std::size_t>(i)], d,
                   W, placement);
      }
      continue;
    }

    // kOptimalDp (ablation): optimal uncapacitated grouping, then a
    // processor-list fallback placement.
    const DataGrouping grouping = optimalGrouping(prefix, model);
    const int g = grouping.numGroups();
    for (int i = 0; i < g; ++i) {
      const auto [begin, end] = grouping.range(i, W);

      // The grouping's own center first (it already encodes stay-put for
      // empty groups); then fall back down the merged-segment processor
      // list to the best center with room in every window of the group.
      const ProcId own = grouping.centers[static_cast<std::size_t>(i)];
      const ProcId placed = prefix.segment(begin, end, own) < kInfiniteCost &&
                                    placement.roomEverywhere(own, begin, end)
                                ? own
                                : grouper.segmentCenter(begin, end);
      if (placed != kNoProc) {
        placeGroup(grouping, i, placed, d, W, placement);
        continue;
      }
      // No single processor has room across the whole group: degrade
      // gracefully into per-window placement that tracks the intended
      // center — for each window, the cheapest processor with room,
      // charging both its serving cost and the detour from the group
      // center (this is plain LOMCDS with a movement-aware tie).
      for (WindowId w = begin; w < end; ++w) {
        const ProcId fallback =
            placement.argminWithRoom(w, w + 1, [&](ProcId p) {
              return satAdd(prefix.segment(w, w + 1, p),
                            model.moveCost(own, p));
            });
        if (fallback == kNoProc) {
          placement.fail("scheduleGroupedLomcds", "for a group");
        }
        placement.place(d, w, fallback);
      }
    }
  }
  return placement.finish();
}

}  // namespace pimsched
