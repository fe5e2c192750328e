#include "digraph.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace pimsched {
namespace {

TEST(Digraph, TopologicalOrderOfChain) {
  Digraph g(4);
  g.addEdge(0, 1, 1);
  g.addEdge(1, 2, 1);
  g.addEdge(2, 3, 1);
  const auto order = g.topologicalOrder();
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  EXPECT_EQ((*order)[0], 0);
  EXPECT_EQ((*order)[3], 3);
}

TEST(Digraph, DetectsCycle) {
  Digraph g(3);
  g.addEdge(0, 1, 1);
  g.addEdge(1, 2, 1);
  g.addEdge(2, 0, 1);
  EXPECT_FALSE(g.topologicalOrder().has_value());
}

TEST(Digraph, SelfLoopIsACycle) {
  Digraph g(2);
  g.addEdge(0, 0, 1);
  EXPECT_FALSE(g.topologicalOrder().has_value());
}

TEST(Digraph, EdgeValidation) {
  Digraph g(2);
  EXPECT_THROW(g.addEdge(0, 2, 1), std::out_of_range);
  EXPECT_THROW(g.addEdge(-1, 0, 1), std::out_of_range);
}

TEST(DagShortestPaths, DiamondPicksCheaperBranch) {
  //   0 -> 1 (1), 0 -> 2 (5), 1 -> 3 (1), 2 -> 3 (1)
  Digraph g(4);
  g.addEdge(0, 1, 1);
  g.addEdge(0, 2, 5);
  g.addEdge(1, 3, 1);
  g.addEdge(2, 3, 1);
  const auto sp = dagShortestPaths(g, 0);
  EXPECT_EQ(sp.dist[3], 2);
  const auto path = sp.pathTo(3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 1);
}

TEST(DagShortestPaths, UnreachableNodes) {
  Digraph g(3);
  g.addEdge(0, 1, 2);
  const auto sp = dagShortestPaths(g, 0);
  EXPECT_EQ(sp.dist[2], kInfiniteCost);
  EXPECT_TRUE(sp.pathTo(2).empty());
}

TEST(DagShortestPaths, NegativeWeightsOnDagAreFine) {
  Digraph g(3);
  g.addEdge(0, 1, 5);
  g.addEdge(1, 2, -3);
  g.addEdge(0, 2, 4);
  const auto sp = dagShortestPaths(g, 0);
  EXPECT_EQ(sp.dist[2], 2);
}

TEST(DagShortestPaths, ThrowsOnCycle) {
  Digraph g(2);
  g.addEdge(0, 1, 1);
  g.addEdge(1, 0, 1);
  EXPECT_THROW(dagShortestPaths(g, 0), std::invalid_argument);
}

TEST(DagShortestPaths, SourceDistanceZero) {
  Digraph g(1);
  const auto sp = dagShortestPaths(g, 0);
  EXPECT_EQ(sp.dist[0], 0);
  EXPECT_EQ(sp.pathTo(0).size(), 1u);
}

TEST(DagShortestPaths, MatchesBellmanFordOnRandomDags) {
  // Random DAGs (edges only from lower to higher index) with negative
  // weights allowed; cross-check against |V| rounds of Bellman-Ford.
  testutil::Rng rng(221);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(15));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.below(3) == 0) {
          g.addEdge(u, v, rng.range(-5, 20));
        }
      }
    }
    const auto sp = dagShortestPaths(g, 0);

    std::vector<Cost> dist(static_cast<std::size_t>(n), kInfiniteCost);
    dist[0] = 0;
    for (int round = 0; round < n; ++round) {
      for (int u = 0; u < n; ++u) {
        if (dist[static_cast<std::size_t>(u)] >= kInfiniteCost) continue;
        for (const Digraph::Edge& e : g.edgesFrom(u)) {
          dist[static_cast<std::size_t>(e.to)] =
              std::min(dist[static_cast<std::size_t>(e.to)],
                       dist[static_cast<std::size_t>(u)] + e.weight);
        }
      }
    }
    for (int v = 0; v < n; ++v) {
      ASSERT_EQ(sp.dist[static_cast<std::size_t>(v)],
                dist[static_cast<std::size_t>(v)]);
    }
    // Path consistency: the reconstructed path's edge weights sum to dist.
    for (int v = 0; v < n; ++v) {
      const auto path = sp.pathTo(v);
      if (path.empty()) continue;
      Cost sum = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        Cost weight = kInfiniteCost;
        for (const Digraph::Edge& e : g.edgesFrom(path[i])) {
          if (e.to == path[i + 1]) weight = std::min(weight, e.weight);
        }
        sum += weight;
      }
      EXPECT_EQ(sum, sp.dist[static_cast<std::size_t>(v)]);
    }
  }
}

}  // namespace
}  // namespace pimsched
