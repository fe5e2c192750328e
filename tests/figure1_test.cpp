// The paper's §3.3 worked example: one datum D on a 4x4 array over 4
// execution windows (Figure 1 gives per-processor reference counts; the
// digits are illegible in the available scan, so we use a reconstructed
// instance with the same structure — see DESIGN.md). The example's
// *relationships* are what we verify:
//   * SCDS places D at the single merged-window optimum;
//   * LOMCDS places D at each window's local optimum;
//   * the GOMCDS path costs no more than either, and its cost equals the
//     shortest path through the paper's explicit cost-graph (pseudo source
//     s, window x processor nodes, pseudo destination d).

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/lomcds.hpp"
#include "core/scds.hpp"
#include "cost/center_costs.hpp"
#include "digraph.hpp"

namespace pimsched {
namespace {

/// Reconstructed Figure 1: reference counts for datum D per window,
/// 4x4 processor array, 4 windows. The hotspot moves across the array —
/// exactly the situation the example illustrates.
constexpr int kCounts[4][4][4] = {
    // window 0: concentrated near (1,0)
    {{2, 1, 0, 0}, {4, 1, 0, 0}, {2, 0, 0, 0}, {1, 0, 0, 0}},
    // window 1: near (1,3)
    {{0, 0, 1, 2}, {0, 0, 2, 5}, {0, 0, 0, 2}, {0, 0, 0, 0}},
    // window 2: back near (1,0)
    {{1, 1, 0, 0}, {5, 2, 0, 0}, {1, 1, 0, 0}, {0, 0, 0, 0}},
    // window 3: near (2,2)
    {{0, 0, 0, 0}, {0, 1, 1, 0}, {0, 2, 4, 1}, {0, 0, 1, 0}},
};

WindowedRefs exampleRefs(const Grid& g) {
  ReferenceTrace t(DataSpace::singleSquare(1));
  for (int w = 0; w < 4; ++w) {
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        if (kCounts[w][r][c] > 0) {
          t.add(w, g.id(r, c), 0, kCounts[w][r][c]);
        }
      }
    }
  }
  t.finalize();
  return WindowedRefs(t, WindowPartition::perStep(4), g);
}

class Fig1Example : public ::testing::Test {
 protected:
  Grid grid_{4, 4};
  CostModel model_{grid_};
};

TEST_F(Fig1Example, ScdsUsesTheMergedCenter) {
  const WindowedRefs refs = exampleRefs(grid_);
  const DataSchedule s = scheduleScds(refs, model_);
  const BestCenter merged = bestCenter(model_, refs.mergedRefs(0, 0, 4));
  for (WindowId w = 0; w < 4; ++w) {
    EXPECT_EQ(s.center(0, w), merged.proc);
  }
  const EvalResult r = evaluateSchedule(s, refs, model_);
  EXPECT_EQ(r.aggregate.serve, merged.cost);
  EXPECT_EQ(r.aggregate.move, 0);
}

TEST_F(Fig1Example, LomcdsTracksTheHotspot) {
  const WindowedRefs refs = exampleRefs(grid_);
  const DataSchedule s = scheduleLomcds(refs, model_);
  // Local centers follow the drifting reference mass.
  EXPECT_EQ(s.center(0, 0), grid_.id(1, 0));
  EXPECT_EQ(s.center(0, 1), grid_.id(1, 3));
  EXPECT_EQ(s.center(0, 2), grid_.id(1, 0));
  EXPECT_EQ(s.center(0, 3), grid_.id(2, 2));
}

TEST_F(Fig1Example, GomcdsBeatsBothAndAvoidsThrashing) {
  const WindowedRefs refs = exampleRefs(grid_);
  const Cost scds =
      evaluateSchedule(scheduleScds(refs, model_), refs, model_)
          .aggregate.total();
  const Cost lomcds =
      evaluateSchedule(scheduleLomcds(refs, model_), refs, model_)
          .aggregate.total();
  const Cost gomcds =
      evaluateSchedule(scheduleGomcds(refs, model_), refs, model_)
          .aggregate.total();
  EXPECT_LE(gomcds, scds);
  EXPECT_LE(gomcds, lomcds);
}

TEST_F(Fig1Example, GomcdsEqualsExplicitCostGraphShortestPath) {
  // Build the paper's literal cost-graph: node v_{i,j} for window i and
  // processor j, pseudo source s and destination d, and apply the DAG
  // shortest-path algorithm. GOMCDS must return exactly this value.
  const WindowedRefs refs = exampleRefs(grid_);
  const int W = 4;
  const int m = grid_.size();

  std::vector<std::vector<Cost>> serve(static_cast<std::size_t>(W));
  for (int w = 0; w < W; ++w) {
    serve[static_cast<std::size_t>(w)] =
        bruteForceCenterCosts(model_, refs.refs(0, w));
  }

  const int source = W * m;
  const int dest = W * m + 1;
  Digraph g(W * m + 2);
  const auto node = [m](int w, int p) { return w * m + p; };
  for (int p = 0; p < m; ++p) {
    g.addEdge(source, node(0, p), serve[0][static_cast<std::size_t>(p)]);
    g.addEdge(node(W - 1, p), dest, 0);
  }
  for (int w = 0; w + 1 < W; ++w) {
    for (int j = 0; j < m; ++j) {
      for (int k = 0; k < m; ++k) {
        g.addEdge(node(w, j), node(w + 1, k),
                  model_.moveCost(static_cast<ProcId>(j),
                                  static_cast<ProcId>(k)) +
                      serve[static_cast<std::size_t>(w + 1)]
                           [static_cast<std::size_t>(k)]);
      }
    }
  }
  const DagShortestPaths sp = dagShortestPaths(g, source);

  const Cost gomcds =
      evaluateSchedule(scheduleGomcds(refs, model_), refs, model_)
          .aggregate.total();
  EXPECT_EQ(sp.dist[static_cast<std::size_t>(dest)], gomcds);
}

TEST_F(Fig1Example, GomcdsCollapsesRepeatedHotspotsWhenMovingIsCostly) {
  // When a datum is bulky (moveVolume 4), LOMCDS — which ignores movement —
  // keeps thrashing between the hotspots while GOMCDS compromises and moves
  // strictly less, ending up strictly cheaper overall.
  CostParams params;
  params.moveVolume = 4;
  const CostModel model(grid_, params);
  const WindowedRefs refs = exampleRefs(grid_);
  const EvalResult go =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model);
  const EvalResult lo =
      evaluateSchedule(scheduleLomcds(refs, model), refs, model);
  EXPECT_LT(go.aggregate.move, lo.aggregate.move);
  EXPECT_LT(go.aggregate.total(), lo.aggregate.total());
}

}  // namespace
}  // namespace pimsched
