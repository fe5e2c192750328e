#include "graph/layered_dag.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "graph/mesh_links.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

/// The pre-flat solver algorithm, kept verbatim as the bit-identity oracle:
/// per-cell saturating dp (dp[w][p] = min_q satAdd(dp[w-1][q], trans(q,p))
/// + own) and the backward smallest-q reconstruction scan. The flat kernels
/// must reproduce its totals, node sequences, and tie-breaks exactly.
LayeredPath referenceSolve(int numLayers, int numNodes,
                           const std::function<Cost(int, int)>& nodeCost,
                           const std::function<Cost(int, int)>& transCost) {
  std::vector<std::vector<Cost>> dp(
      static_cast<std::size_t>(numLayers),
      std::vector<Cost>(static_cast<std::size_t>(numNodes)));
  for (int p = 0; p < numNodes; ++p) {
    dp[0][static_cast<std::size_t>(p)] = nodeCost(0, p);
  }
  for (int w = 1; w < numLayers; ++w) {
    for (int p = 0; p < numNodes; ++p) {
      Cost best = kInfiniteCost;
      for (int q = 0; q < numNodes; ++q) {
        best = std::min(
            best, satAdd(dp[static_cast<std::size_t>(w - 1)]
                           [static_cast<std::size_t>(q)],
                         transCost(q, p)));
      }
      dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] =
          satAdd(best, nodeCost(w, p));
    }
  }
  LayeredPath out;
  const auto& last = dp[static_cast<std::size_t>(numLayers - 1)];
  const auto best = std::min_element(last.begin(), last.end());
  out.total = *best;
  if (out.total >= kInfiniteCost) return out;
  out.nodes.assign(static_cast<std::size_t>(numLayers), 0);
  int cur = static_cast<int>(best - last.begin());
  out.nodes[static_cast<std::size_t>(numLayers - 1)] = cur;
  for (int w = numLayers - 1; w > 0; --w) {
    const Cost target =
        dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(cur)];
    const Cost own = nodeCost(w, cur);
    int prev = -1;
    for (int q = 0; q < numNodes; ++q) {
      if (satAdd(satAdd(dp[static_cast<std::size_t>(w - 1)]
                          [static_cast<std::size_t>(q)],
                        transCost(q, cur)),
                 own) == target) {
        prev = q;
        break;
      }
    }
    if (prev < 0) throw std::logic_error("referenceSolve: no predecessor");
    cur = prev;
    out.nodes[static_cast<std::size_t>(w - 1)] = cur;
  }
  return out;
}

/// Materializes a node-cost callback into the row-major numLayers x
/// numNodes table the flat kernels take.
std::vector<Cost> nodeTableOf(int numLayers, int numNodes,
                              const std::function<Cost(int, int)>& nodeCost) {
  std::vector<Cost> t;
  for (int w = 0; w < numLayers; ++w) {
    for (int p = 0; p < numNodes; ++p) t.push_back(nodeCost(w, p));
  }
  return t;
}

/// The literal cost-graph solve of callback costs: both callbacks
/// materialized into tables for the generic flat kernel.
LayeredPath solveTables(int numLayers, int numNodes,
                        const std::function<Cost(int, int)>& nodeCost,
                        const std::function<Cost(int, int)>& transCost) {
  std::vector<Cost> trans;
  for (int q = 0; q < numNodes; ++q) {
    for (int p = 0; p < numNodes; ++p) trans.push_back(transCost(q, p));
  }
  return LayeredDagSolver::solveFlat(
      numLayers, numNodes, nodeTableOf(numLayers, numNodes, nodeCost), trans);
}

/// Random node-cost table with forbidden (kInfiniteCost) entries mixed in.
std::vector<Cost> randomNodeTable(testutil::Rng& rng, int layers, int nodes,
                                  Cost maxCost = 40) {
  std::vector<Cost> t(static_cast<std::size_t>(layers) *
                      static_cast<std::size_t>(nodes));
  for (Cost& c : t) {
    c = rng.below(6) == 0 ? kInfiniteCost : rng.range(0, maxCost);
  }
  return t;
}

TEST(SatAdd, Saturates) {
  EXPECT_EQ(satAdd(1, 2), 3);
  EXPECT_EQ(satAdd(kInfiniteCost, 1), kInfiniteCost);
  EXPECT_EQ(satAdd(5, kInfiniteCost), kInfiniteCost);
  EXPECT_EQ(satAdd(kInfiniteCost, kInfiniteCost), kInfiniteCost);
}

TEST(ManhattanMinPlus, ZeroBetaGivesGlobalMin) {
  const Grid g(4, 5);
  testutil::Rng rng(3);
  std::vector<Cost> in;
  for (int i = 0; i < g.size(); ++i) in.push_back(rng.range(0, 100));
  const Cost globalMin = *std::min_element(in.begin(), in.end());
  for (const Cost v : manhattanMinPlus(g, in, 0)) EXPECT_EQ(v, globalMin);
}

TEST(ManhattanMinPlus, MatchesBruteForce) {
  testutil::Rng rng(17);
  for (const auto& [rows, cols] : {std::pair{1, 1}, {1, 6}, {6, 1}, {4, 4},
                                  {3, 7}, {5, 5}}) {
    const Grid g(rows, cols);
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      std::vector<Cost> in;
      for (int i = 0; i < g.size(); ++i) {
        // Mix in a few forbidden nodes.
        in.push_back(rng.below(5) == 0 ? kInfiniteCost : rng.range(0, 50));
      }
      const auto fast = manhattanMinPlus(g, in, beta);
      for (ProcId p = 0; p < g.size(); ++p) {
        Cost expect = kInfiniteCost;
        for (ProcId q = 0; q < g.size(); ++q) {
          expect = std::min(
              expect,
              satAdd(in[static_cast<std::size_t>(q)], beta * g.manhattan(p, q)));
        }
        ASSERT_EQ(fast[static_cast<std::size_t>(p)], expect)
            << rows << "x" << cols << " beta " << beta << " p " << p;
      }
    }
  }
}

TEST(ManhattanMinPlus, AllInfiniteStaysInfinite) {
  const Grid g(3, 3);
  const std::vector<Cost> in(9, kInfiniteCost);
  for (const Cost v : manhattanMinPlus(g, in, 2)) {
    EXPECT_EQ(v, kInfiniteCost);
  }
}

TEST(LayeredDagSolver, SingleLayerPicksMinNode) {
  const auto nodeCost = [](int, int n) -> Cost { return (n == 2) ? 1 : 5; };
  const auto trans = [](int, int) -> Cost { return 0; };
  const LayeredPath path = solveTables(1, 4, nodeCost, trans);
  ASSERT_TRUE(path.feasible());
  EXPECT_EQ(path.total, 1);
  EXPECT_EQ(path.nodes, (std::vector<int>{2}));
}

TEST(LayeredDagSolver, TradesNodeCostAgainstTransition) {
  // Two layers, two nodes. Node 0 is cheap in both layers, node 1 cheap in
  // layer 1 only; transition cost 10 forbids switching.
  const auto nodeCost = [](int layer, int n) -> Cost {
    if (layer == 0) return n == 0 ? 0 : 4;
    return n == 0 ? 3 : 0;
  };
  const auto trans = [](int a, int b) -> Cost { return a == b ? 0 : 10; };
  const LayeredPath path = solveTables(2, 2, nodeCost, trans);
  EXPECT_EQ(path.total, 3);  // stay at node 0: 0 + 3
  EXPECT_EQ(path.nodes, (std::vector<int>{0, 0}));
}

TEST(LayeredDagSolver, SwitchesWhenWorthIt) {
  const auto nodeCost = [](int layer, int n) -> Cost {
    if (layer == 0) return n == 0 ? 0 : 100;
    return n == 0 ? 100 : 0;
  };
  const auto trans = [](int a, int b) -> Cost { return a == b ? 0 : 1; };
  const LayeredPath path = solveTables(2, 2, nodeCost, trans);
  EXPECT_EQ(path.total, 1);
  EXPECT_EQ(path.nodes, (std::vector<int>{0, 1}));
}

TEST(LayeredDagSolver, InfeasibleWhenLayerFullyForbidden) {
  const auto nodeCost = [](int layer, int) -> Cost {
    return layer == 1 ? kInfiniteCost : 0;
  };
  const auto trans = [](int, int) -> Cost { return 0; };
  const LayeredPath path = solveTables(3, 2, nodeCost, trans);
  EXPECT_FALSE(path.feasible());
  EXPECT_TRUE(path.nodes.empty());
}

TEST(LayeredDagSolver, RoutesAroundForbiddenNodes) {
  // Node 0 forbidden in layer 1 only; optimal path detours via node 1.
  const auto nodeCost = [](int layer, int n) -> Cost {
    if (layer == 1 && n == 0) return kInfiniteCost;
    return n == 0 ? 0 : 2;
  };
  const auto trans = [](int a, int b) -> Cost { return a == b ? 0 : 1; };
  const LayeredPath path = solveTables(3, 2, nodeCost, trans);
  ASSERT_TRUE(path.feasible());
  EXPECT_EQ(path.nodes, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(path.total, 0 + 1 + 2 + 1 + 0);
}

// Property: the chamfer engine must agree with the literal cost-graph
// relaxation — identical totals AND identical paths (shared tie-breaking).
class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(EngineEquivalence, ChamferMatchesNaive) {
  const auto [rows, cols, layers, seed] = GetParam();
  const Grid g(rows, cols);
  testutil::Rng rng(static_cast<std::uint64_t>(seed));
  for (const Cost beta : {Cost{0}, Cost{1}, Cost{2}}) {
    // Random node costs with some forbidden cells.
    std::vector<std::vector<Cost>> costs(
        static_cast<std::size_t>(layers),
        std::vector<Cost>(static_cast<std::size_t>(g.size())));
    for (auto& layer : costs) {
      for (auto& c : layer) {
        c = rng.below(6) == 0 ? kInfiniteCost : rng.range(0, 40);
      }
    }
    const auto nodeCost = [&costs](int w, int p) -> Cost {
      return costs[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)];
    };
    const auto trans = [&g, beta](int a, int b) -> Cost {
      return beta * g.manhattan(static_cast<ProcId>(a),
                                static_cast<ProcId>(b));
    };
    const LayeredPath naive = solveTables(layers, g.size(), nodeCost, trans);
    const LayeredPath fast = LayeredDagSolver::solveManhattanFlat(
        g, layers, nodeTableOf(layers, g.size(), nodeCost), beta);
    ASSERT_EQ(naive.total, fast.total);
    ASSERT_EQ(naive.nodes, fast.nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, EngineEquivalence,
    ::testing::Values(std::make_tuple(2, 2, 1, 1), std::make_tuple(2, 2, 4, 2),
                      std::make_tuple(4, 4, 6, 3), std::make_tuple(1, 7, 5, 4),
                      std::make_tuple(5, 1, 5, 5), std::make_tuple(3, 4, 8, 6),
                      std::make_tuple(4, 4, 2, 7),
                      std::make_tuple(6, 3, 10, 8)));

// Property: the flat table kernel is bit-identical — totals, node
// sequences, tie-breaks — to the pre-flat saturating dp on random
// instances, including asymmetric transition tables with forbidden edges
// (the fault-aware regime, where trans(q,p) != trans(p,q)).
TEST(FlatSolver, TableKernelMatchesReferenceOnRandomInstances) {
  testutil::Rng rng(101);
  LayeredDagScratch scratch;
  LayeredPath reused;
  for (int trial = 0; trial < 40; ++trial) {
    const int nodes = static_cast<int>(rng.range(1, 9));
    const int layers = static_cast<int>(rng.range(1, 8));
    const std::vector<Cost> nodeTable = randomNodeTable(rng, layers, nodes);
    std::vector<Cost> trans(static_cast<std::size_t>(nodes) *
                            static_cast<std::size_t>(nodes));
    for (Cost& c : trans) {
      c = rng.below(8) == 0 ? kInfiniteCost : rng.range(0, 20);
    }
    const auto nodeCost = [&](int w, int p) -> Cost {
      return nodeTable[static_cast<std::size_t>(w) *
                           static_cast<std::size_t>(nodes) +
                       static_cast<std::size_t>(p)];
    };
    const auto transCost = [&](int q, int p) -> Cost {
      return trans[static_cast<std::size_t>(q) *
                       static_cast<std::size_t>(nodes) +
                   static_cast<std::size_t>(p)];
    };
    const LayeredPath expect =
        referenceSolve(layers, nodes, nodeCost, transCost);
    const LayeredPath flat =
        LayeredDagSolver::solveFlat(layers, nodes, nodeTable, trans);
    ASSERT_EQ(flat.total, expect.total) << "trial " << trial;
    ASSERT_EQ(flat.nodes, expect.nodes) << "trial " << trial;
    // The allocation-free entry point, on a scratch left dirty by earlier
    // trials, must give identical output again.
    LayeredDagSolver::solveFlatInto(layers, nodes, nodeTable, trans, scratch,
                                    reused);
    ASSERT_EQ(reused.total, expect.total) << "trial " << trial;
    ASSERT_EQ(reused.nodes, expect.nodes) << "trial " << trial;
  }
}

// Property: the Manhattan flat kernel (branch-free chamfer sweeps +
// division-free reconstruction scan) is bit-identical to the reference dp
// with trans(q, p) = beta * manhattan(q, p) — the fault-free regime.
TEST(FlatSolver, ManhattanKernelMatchesReferenceOnRandomInstances) {
  testutil::Rng rng(202);
  LayeredDagScratch scratch;
  LayeredPath reused;
  for (const auto& [rows, cols] : {std::pair{1, 1}, {1, 6}, {4, 4}, {3, 5}}) {
    const Grid g(rows, cols);
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      for (int trial = 0; trial < 6; ++trial) {
        const int layers = static_cast<int>(rng.range(1, 8));
        const std::vector<Cost> nodeTable =
            randomNodeTable(rng, layers, g.size());
        const auto nodeCost = [&](int w, int p) -> Cost {
          return nodeTable[static_cast<std::size_t>(w) *
                               static_cast<std::size_t>(g.size()) +
                           static_cast<std::size_t>(p)];
        };
        const auto transCost = [&](int q, int p) -> Cost {
          return beta * g.manhattan(static_cast<ProcId>(q),
                                    static_cast<ProcId>(p));
        };
        const LayeredPath expect =
            referenceSolve(layers, g.size(), nodeCost, transCost);
        const LayeredPath flat =
            LayeredDagSolver::solveManhattanFlat(g, layers, nodeTable, beta);
        ASSERT_EQ(flat.total, expect.total)
            << rows << "x" << cols << " beta " << beta << " trial " << trial;
        ASSERT_EQ(flat.nodes, expect.nodes)
            << rows << "x" << cols << " beta " << beta << " trial " << trial;
        LayeredDagSolver::solveManhattanFlatInto(g, layers, nodeTable, beta,
                                                 scratch, reused);
        ASSERT_EQ(reused.total, expect.total);
        ASSERT_EQ(reused.nodes, expect.nodes);
      }
    }
  }
}

// The separable solve over W x R row and W x C column node costs is
// bit-identical — totals, paths and tie-breaks — to the chamfer and dense
// kernels over the summed R x C table node(w, r * C + c) = row + col.
// Thin and odd grids, one layer, beta = 0, all-zero costs (everything
// ties, as with hopCost = 0 or a window without references) and forbidden
// rows or columns are all covered.
TEST(SeparableSolver, MatchesManhattanAndDenseKernelsOnRandomInstances) {
  testutil::Rng rng(204);
  LayeredDagScratch scratch;
  LayeredPath separable;
  for (const auto& [rows, cols] :
       {std::pair{1, 1}, {1, 7}, {7, 1}, {3, 5}, {5, 3}, {4, 4}, {6, 6}}) {
    const Grid g(rows, cols);
    std::vector<Cost> trans;
    for (ProcId q = 0; q < g.size(); ++q) {
      for (ProcId p = 0; p < g.size(); ++p) trans.push_back(g.manhattan(q, p));
    }
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      std::vector<Cost> scaled = trans;
      for (Cost& t : scaled) t *= beta;
      for (int trial = 0; trial < 12; ++trial) {
        const int layers = trial == 0 ? 1 : static_cast<int>(rng.range(1, 8));
        // trial % 3: 0 = all zero, 1 = small costs (many ties), 2 = wide
        // costs with a forbidden row or column now and then.
        const auto draw = [&](std::size_t count) {
          std::vector<Cost> v(count);
          for (Cost& c : v) {
            switch (trial % 3) {
              case 0: c = 0; break;
              case 1: c = rng.range(0, 2); break;
              default:
                c = rng.below(9) == 0 ? kInfiniteCost : rng.range(0, 40);
            }
          }
          return v;
        };
        const std::vector<Cost> rowCosts =
            draw(static_cast<std::size_t>(layers * rows));
        const std::vector<Cost> colCosts =
            draw(static_cast<std::size_t>(layers * cols));
        std::vector<Cost> nodeTable;
        for (int w = 0; w < layers; ++w) {
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
              nodeTable.push_back(satAdd(
                  rowCosts[static_cast<std::size_t>(w * rows + r)],
                  colCosts[static_cast<std::size_t>(w * cols + c)]));
            }
          }
        }
        const LayeredPath chamfer =
            LayeredDagSolver::solveManhattanFlat(g, layers, nodeTable, beta);
        const LayeredPath dense =
            LayeredDagSolver::solveFlat(layers, g.size(), nodeTable, scaled);
        LayeredDagSolver::solveSeparableInto(g, layers, rowCosts, colCosts,
                                             beta, scratch, separable);
        const std::string where = std::to_string(rows) + "x" +
                                  std::to_string(cols) + " beta " +
                                  std::to_string(beta) + " trial " +
                                  std::to_string(trial);
        ASSERT_EQ(chamfer.total, dense.total) << where;
        ASSERT_EQ(chamfer.nodes, dense.nodes) << where;
        ASSERT_EQ(separable.total, chamfer.total) << where;
        ASSERT_EQ(separable.nodes, chamfer.nodes) << where;
      }
    }
  }
}

TEST(SeparableSolver, RejectsInvalidInput) {
  const Grid g(3, 4);
  LayeredDagScratch scratch;
  LayeredPath out;
  const std::vector<Cost> rows(6, 1);
  const std::vector<Cost> cols(8, 1);
  EXPECT_THROW(LayeredDagSolver::solveSeparableInto(g, 0, {}, {}, 1, scratch,
                                                    out),
               std::invalid_argument);
  EXPECT_THROW(LayeredDagSolver::solveSeparableInto(g, 2, rows, rows, 1,
                                                    scratch, out),
               std::invalid_argument);
  EXPECT_THROW(LayeredDagSolver::solveSeparableInto(g, 2, rows, cols, -1,
                                                    scratch, out),
               std::invalid_argument);
  EXPECT_THROW(LayeredDagSolver::solveSeparableInto(
                   g, 2, rows, cols, maxChamferBeta(g) + 1, scratch, out),
               std::invalid_argument);
  LayeredDagSolver::solveSeparableInto(g, 2, rows, cols, 1, scratch, out);
  EXPECT_EQ(out.total, 4);
  EXPECT_EQ(out.nodes, (std::vector<int>{0, 0}));
}

// The chamfer entry points accept beta up to maxChamferBeta(grid), where the
// branch-free sweeps still match the reference exactly, and reject one past
// it with std::invalid_argument, like a negative beta.
TEST(FlatSolver, RejectsBetaPastTheOverflowGuard) {
  const Grid g(3, 3);
  const Cost steps = 2 * Cost{3 + 3} + 2;
  const Cost bound = (INT64_MAX - kInfiniteCost) / steps;
  ASSERT_EQ(maxChamferBeta(g), bound);
  testutil::Rng rng(303);
  const std::vector<Cost> nodeTable = randomNodeTable(rng, 5, g.size());
  const auto nodeCost = [&](int w, int p) -> Cost {
    return nodeTable[static_cast<std::size_t>(w) *
                         static_cast<std::size_t>(g.size()) +
                     static_cast<std::size_t>(p)];
  };
  const auto transCost = [&](int q, int p) -> Cost {
    return bound *
           g.manhattan(static_cast<ProcId>(q), static_cast<ProcId>(p));
  };
  const LayeredPath expect =
      referenceSolve(5, g.size(), nodeCost, transCost);
  const LayeredPath atBound =
      LayeredDagSolver::solveManhattanFlat(g, 5, nodeTable, bound);
  EXPECT_EQ(atBound.total, expect.total);
  EXPECT_EQ(atBound.nodes, expect.nodes);

  std::vector<Cost> row(static_cast<std::size_t>(g.size()), 1);
  for (const Cost beta : {Cost{-1}, bound + 1, Cost{INT64_MAX}}) {
    EXPECT_THROW((void)manhattanMinPlus(g, row, beta), std::invalid_argument)
        << beta;
    EXPECT_THROW(manhattanMinPlusInto(g, row, beta, row),
                 std::invalid_argument)
        << beta;
    EXPECT_THROW((void)LayeredDagSolver::solveManhattanFlat(g, 5, nodeTable,
                                                            beta),
                 std::invalid_argument)
        << beta;
    // A one-layer solve relaxes nothing and still checks beta.
    LayeredDagScratch scratch;
    LayeredPath out;
    EXPECT_THROW(LayeredDagSolver::solveManhattanFlatInto(
                     g, 1, std::span<const Cost>(nodeTable).first(9), beta,
                     scratch, out),
                 std::invalid_argument)
        << beta;
  }
}

// The Into variant reuses caller scratch without reallocating between
// calls and may alias input and output in manhattanMinPlusInto.
TEST(FlatSolver, IntoVariantsReuseBuffersAndSupportAliasing) {
  const Grid g(3, 4);
  testutil::Rng rng(404);
  std::vector<Cost> in;
  for (int i = 0; i < g.size(); ++i) {
    in.push_back(rng.below(5) == 0 ? kInfiniteCost : rng.range(0, 30));
  }
  const std::vector<Cost> expect = manhattanMinPlus(g, in, 2);

  std::vector<Cost> out(in.size());
  manhattanMinPlusInto(g, in, 2, out);
  EXPECT_EQ(out, expect);

  std::vector<Cost> aliased = in;
  manhattanMinPlusInto(g, aliased, 2, aliased);  // in-place
  EXPECT_EQ(aliased, expect);

  LayeredDagScratch scratch;
  LayeredPath path;
  const std::vector<Cost> nodeTable = randomNodeTable(rng, 6, g.size());
  LayeredDagSolver::solveManhattanFlatInto(g, 6, nodeTable, 1, scratch, path);
  const LayeredPath once = path;
  LayeredDagSolver::solveManhattanFlatInto(g, 6, nodeTable, 1, scratch, path);
  EXPECT_EQ(path.total, once.total);
  EXPECT_EQ(path.nodes, once.nodes);
}

// Restores the dispatched SIMD tier on scope exit so cross-tier tests
// cannot leak a forced tier into later tests in this binary.
class TierGuard {
 public:
  TierGuard() : saved_(simd::activeTier()) {}
  ~TierGuard() { simd::forceTier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier saved_;
};

std::vector<simd::Tier> supportedTiers() {
  std::vector<simd::Tier> out = {simd::Tier::kScalar};
  if (simd::tierSupported(simd::Tier::kAvx2)) {
    out.push_back(simd::Tier::kAvx2);
  }
  return out;
}

// The odd-shaped grids the SIMD tails must handle: degenerate single
// row/column strips, a non-multiple-of-4 rectangle, and a 33x33 whose rows
// are one past the AVX2 block width.
const std::vector<std::pair<int, int>> kOddGrids = {
    {1, 9}, {9, 1}, {5, 7}, {33, 33}};

// Property: every supported SIMD tier produces bit-identical solver output
// — totals, node sequences, tie-breaks — on odd grid shapes whose column
// counts exercise the vector tails. The scalar tier is the oracle.
TEST(SimdTierIdentity, ManhattanSolveBitIdenticalAcrossTiersOnOddGrids) {
  const TierGuard guard;
  testutil::Rng rng(505);
  for (const auto& [rows, cols] : kOddGrids) {
    const Grid g(rows, cols);
    const int layers = 4;
    const std::vector<Cost> nodeTable =
        randomNodeTable(rng, layers, g.size());
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      simd::forceTier(simd::Tier::kScalar);
      const LayeredPath expect =
          LayeredDagSolver::solveManhattanFlat(g, layers, nodeTable, beta);
      for (const simd::Tier t : supportedTiers()) {
        simd::forceTier(t);
        const LayeredPath got =
            LayeredDagSolver::solveManhattanFlat(g, layers, nodeTable, beta);
        ASSERT_EQ(got.total, expect.total)
            << rows << "x" << cols << " beta " << beta << " tier "
            << simd::tierName(t);
        ASSERT_EQ(got.nodes, expect.nodes)
            << rows << "x" << cols << " beta " << beta << " tier "
            << simd::tierName(t);
      }
    }
  }
}

// Same property through the generic flat solver with asymmetric faulted
// transition tables — trans(q,p) != trans(p,q), forbidden edges mixed in —
// the regime fault-aware scheduling feeds the solver.
TEST(SimdTierIdentity, AsymmetricFaultedTablesBitIdenticalAcrossTiers) {
  const TierGuard guard;
  testutil::Rng rng(606);
  for (const auto& [rows, cols] : kOddGrids) {
    const Grid g(rows, cols);
    const int nodes = g.size();
    // 33x33 has 1089 nodes; a dense asymmetric table is ~1.2M entries,
    // which the generic kernel sweeps fine but one trial suffices there.
    const int trials = nodes > 256 ? 1 : 4;
    for (int trial = 0; trial < trials; ++trial) {
      const int layers = static_cast<int>(rng.range(2, 5));
      const std::vector<Cost> nodeTable =
          randomNodeTable(rng, layers, nodes);
      std::vector<Cost> trans(static_cast<std::size_t>(nodes) *
                              static_cast<std::size_t>(nodes));
      for (Cost& c : trans) {
        c = rng.below(7) == 0 ? kInfiniteCost : rng.range(0, 25);
      }
      simd::forceTier(simd::Tier::kScalar);
      const LayeredPath expect =
          LayeredDagSolver::solveFlat(layers, nodes, nodeTable, trans);
      for (const simd::Tier t : supportedTiers()) {
        simd::forceTier(t);
        const LayeredPath got =
            LayeredDagSolver::solveFlat(layers, nodes, nodeTable, trans);
        ASSERT_EQ(got.total, expect.total)
            << rows << "x" << cols << " trial " << trial << " tier "
            << simd::tierName(t);
        ASSERT_EQ(got.nodes, expect.nodes)
            << rows << "x" << cols << " trial " << trial << " tier "
            << simd::tierName(t);
      }
    }
  }
}

// --- faulted-mesh kernel ------------------------------------------------
//
// The mesh kernel must agree bit for bit with the dense kernel fed the
// beta x hop-distance table the faulted engines used to build: relaxed
// values, dp rows, totals, paths, tie-breaks and parent caches.

/// A faulted grid with its distance map and mesh links. Heap-held and
/// immovable: the links point at the distance map, which points at the
/// fault map, which points at the grid.
struct FaultedMesh {
  FaultedMesh(int rows, int cols) : grid(rows, cols), faults(grid) {}
  FaultedMesh(const FaultedMesh&) = delete;
  FaultedMesh& operator=(const FaultedMesh&) = delete;

  /// Freezes the fault state into the distance map and the links.
  void build() {
    distances = std::make_unique<DistanceMap>(grid, faults);
    links = std::make_unique<MeshLinks>(*distances);
  }

  /// The dense transition table of the same transition: beta * hops,
  /// saturated to kInfiniteCost (unreachable pairs, and hop counts whose
  /// beta multiple would reach it).
  [[nodiscard]] std::vector<Cost> table(Cost beta) const {
    const std::size_t n = static_cast<std::size_t>(grid.size());
    std::vector<Cost> t(n * n);
    for (std::size_t q = 0; q < n; ++q) {
      for (std::size_t p = 0; p < n; ++p) {
        const Cost d = distances->hopDistance(static_cast<ProcId>(q),
                                              static_cast<ProcId>(p));
        const bool inf =
            d >= kInfiniteCost || (beta > 0 && d > (kInfiniteCost - 1) / beta);
        t[q * n + p] = inf ? kInfiniteCost : beta * d;
      }
    }
    return t;
  }

  Grid grid;
  FaultMap faults;
  std::unique_ptr<DistanceMap> distances;
  std::unique_ptr<MeshLinks> links;
};

/// Random dead processors and one-way dead links; `partition` also kills a
/// whole middle row (or column), so some alive pairs are unreachable.
std::unique_ptr<FaultedMesh> randomFaultedMesh(testutil::Rng& rng, int rows,
                                               int cols, bool partition) {
  auto mesh = std::make_unique<FaultedMesh>(rows, cols);
  const Grid& g = mesh->grid;
  const int procs = static_cast<int>(rng.range(0, std::max(1, g.size() / 8)));
  for (int i = 0; i < procs; ++i) {
    mesh->faults.killProc(
        static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(g.size()))));
  }
  const int links = static_cast<int>(rng.range(1, g.size() / 3 + 1));
  for (int i = 0; i < links; ++i) {
    const auto from =
        static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(g.size())));
    const std::vector<ProcId> next = g.neighbors(from);
    mesh->faults.killLink(from, next[rng.below(next.size())]);
  }
  if (partition) {
    if (rows > 2) {
      mesh->faults.killRow(rows / 2);
    } else {
      mesh->faults.killCol(cols / 2);
    }
  }
  mesh->build();
  return mesh;
}

/// The dense relax of one layer, clamped: what the mesh relax must return.
std::vector<Cost> denseRelax(const std::vector<Cost>& table,
                             const std::vector<Cost>& in) {
  const std::size_t n = in.size();
  std::vector<Cost> out(n, kInfiniteCost);
  for (std::size_t q = 0; q < n; ++q) {
    if (in[q] >= kInfiniteCost) continue;
    for (std::size_t p = 0; p < n; ++p) {
      out[p] = std::min(out[p], satAdd(in[q], table[q * n + p]));
    }
  }
  return out;
}

const std::vector<std::pair<int, int>> kMeshGrids = {
    {1, 9}, {9, 1}, {5, 7}, {9, 9}, {12, 12}};
const std::vector<Cost> kMeshBetas = {0, 1, 3, kInfiniteCost / 8};

TEST(MeshMinPlus, MatchesDenseRelaxOnRandomFaults) {
  testutil::Rng rng(1301);
  for (const auto& [rows, cols] : kMeshGrids) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto mesh = randomFaultedMesh(rng, rows, cols, trial % 3 == 2);
      for (const Cost beta : kMeshBetas) {
        const std::vector<Cost> table = mesh->table(beta);
        std::vector<Cost> in =
            randomNodeTable(rng, 1, mesh->grid.size(), 60);
        const std::vector<Cost> expect = denseRelax(table, in);
        std::vector<Cost> out(in.size());
        const int sweeps = meshMinPlusInto(*mesh->links, in, beta, out);
        EXPECT_GE(sweeps, 1);
        ASSERT_EQ(out, expect) << rows << "x" << cols << " trial " << trial
                               << " beta " << beta;
        meshMinPlusInto(*mesh->links, in, beta, in);  // in-place
        ASSERT_EQ(in, expect) << "aliased, " << rows << "x" << cols;
      }
    }
  }
}

TEST(MeshFlatSolver, MatchesDenseKernelBitForBit) {
  testutil::Rng rng(1302);
  for (const auto& [rows, cols] : kMeshGrids) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto mesh = randomFaultedMesh(rng, rows, cols, trial == 3);
      const int nodes = mesh->grid.size();
      for (const Cost beta : kMeshBetas) {
        const std::vector<Cost> table = mesh->table(beta);
        const int layers = static_cast<int>(rng.range(1, 6));
        // kInfiniteCost entries stand in for capacity-masked nodes.
        const std::vector<Cost> nodeTable =
            randomNodeTable(rng, layers, nodes);
        LayeredDagScratch denseScratch;
        LayeredDagScratch meshScratch;
        LayeredPath dense;
        LayeredPath got;
        LayeredDagSolver::solveFlatInto(layers, nodes, nodeTable, table,
                                        denseScratch, dense);
        LayeredDagSolver::solveMeshFlatInto(*mesh->links, layers, nodeTable,
                                            beta, meshScratch, got);
        const std::size_t ln =
            static_cast<std::size_t>(layers) * static_cast<std::size_t>(nodes);
        ASSERT_TRUE(std::equal(meshScratch.dp.begin(),
                               meshScratch.dp.begin() + ln,
                               denseScratch.dp.begin()))
            << rows << "x" << cols << " trial " << trial << " beta " << beta;
        ASSERT_EQ(got.total, dense.total);
        ASSERT_EQ(got.nodes, dense.nodes);
      }
    }
  }
}

// Each mesh resume, with and without the predecessor cache, against a
// cold dense solve of the same node table: dp rows, total and nodes.
TEST(MeshFlatSolver, ResumeFromEveryLayerMatchesDenseResume) {
  testutil::Rng rng(1303);
  for (const auto& [rows, cols] : kMeshGrids) {
    const auto mesh = randomFaultedMesh(rng, rows, cols, false);
    const int nodes = mesh->grid.size();
    const int layers = 5;
    for (const Cost beta : kMeshBetas) {
      const std::vector<Cost> table = mesh->table(beta);
      std::vector<Cost> nodeTable = randomNodeTable(rng, layers, nodes);
      for (const bool cached : {true, false}) {
        LayeredDagScratch meshScratch;
        CostBuffer meshDp;
        LayeredParentCache meshParents;
        LayeredPath got;
        LayeredDagSolver::solveMeshFlatResumeInto(
            *mesh->links, layers, nodeTable, beta, 0, meshDp, meshScratch, got,
            cached ? &meshParents : nullptr);
        for (int from = 0; from <= layers; ++from) {
          for (std::size_t i = static_cast<std::size_t>(from * nodes);
               i < nodeTable.size(); ++i) {
            nodeTable[i] =
                rng.below(6) == 0 ? kInfiniteCost : rng.range(0, 40);
          }
          LayeredDagScratch denseScratch;
          LayeredPath dense;
          LayeredDagSolver::solveFlatInto(layers, nodes, nodeTable, table,
                                          denseScratch, dense);
          LayeredDagSolver::solveMeshFlatResumeInto(
              *mesh->links, layers, nodeTable, beta, from, meshDp,
              meshScratch, got, cached ? &meshParents : nullptr);
          ASSERT_TRUE(std::equal(meshDp.begin(), meshDp.end(),
                                 denseScratch.dp.begin(),
                                 denseScratch.dp.end()))
              << rows << "x" << cols << " beta " << beta << " from " << from;
          ASSERT_EQ(got.total, dense.total) << "from " << from;
          ASSERT_EQ(got.nodes, dense.nodes) << "from " << from;
        }
      }
    }
  }
}

// A serpentine maze: walls of dead processors on every odd column, each
// open only at the bottom or the top row, alternately. The only path from
// the top-left corner runs down, over, up, over, down, ... and each sweep
// (one top-down and one bottom-up pass) carries it through about two
// corridors, so the relax needs many sweeps — the worst case the settled
// check has to detect.
TEST(MeshMinPlus, SerpentineMazeNeedsManySweepsAndStaysExact) {
  const int rows = 6;
  const int cols = 25;
  FaultedMesh mesh(rows, cols);
  for (int c = 1; c < cols; c += 2) {
    const int gap = (c / 2) % 2 == 0 ? rows - 1 : 0;
    for (int r = 0; r < rows; ++r) {
      if (r != gap) mesh.faults.killProc(mesh.grid.id(r, c));
    }
  }
  mesh.build();
  ASSERT_FALSE(mesh.distances->partitioned());
  for (const Cost beta : {Cost{1}, Cost{3}}) {
    std::vector<Cost> in(static_cast<std::size_t>(mesh.grid.size()),
                         kInfiniteCost);
    in[0] = 0;
    std::vector<Cost> out(in.size());
    const int sweeps = meshMinPlusInto(*mesh.links, in, beta, out);
    EXPECT_GE(sweeps, 6) << "the maze should need one sweep per two walls";
    EXPECT_EQ(out, denseRelax(mesh.table(beta), in));
    // The far corner sits at the end of the whole serpentine.
    EXPECT_EQ(out[static_cast<std::size_t>(mesh.grid.id(rows - 1, cols - 1))],
              beta * mesh.distances->hopDistance(0, mesh.grid.id(rows - 1,
                                                                 cols - 1)));

    testutil::Rng rng(1304);
    const std::vector<Cost> nodeTable =
        randomNodeTable(rng, 4, mesh.grid.size());
    const LayeredPath dense = LayeredDagSolver::solveFlat(
        4, mesh.grid.size(), nodeTable, mesh.table(beta));
    LayeredDagScratch scratch;
    LayeredPath got;
    LayeredDagSolver::solveMeshFlatInto(*mesh.links, 4, nodeTable, beta,
                                        scratch, got);
    EXPECT_EQ(got.total, dense.total);
    EXPECT_EQ(got.nodes, dense.nodes);
  }
}

TEST(MeshFlatSolver, BitIdenticalAcrossSimdTiers) {
  const TierGuard guard;
  testutil::Rng rng(1305);
  for (const auto& [rows, cols] : kMeshGrids) {
    const auto mesh = randomFaultedMesh(rng, rows, cols, false);
    const int layers = 5;
    const std::vector<Cost> nodeTable =
        randomNodeTable(rng, layers, mesh->grid.size());
    const LayeredPath expect = LayeredDagSolver::solveFlat(
        layers, mesh->grid.size(), nodeTable, mesh->table(2));
    for (const simd::Tier t : supportedTiers()) {
      simd::forceTier(t);
      LayeredDagScratch scratch;
      LayeredPath got;
      LayeredDagSolver::solveMeshFlatInto(*mesh->links, layers, nodeTable, 2,
                                          scratch, got);
      ASSERT_EQ(got.total, expect.total) << simd::tierName(t);
      ASSERT_EQ(got.nodes, expect.nodes) << simd::tierName(t);
    }
  }
}

TEST(MeshFlatSolver, RejectsInvalidInput) {
  FaultedMesh mesh(3, 3);
  mesh.faults.killProc(4);
  mesh.build();
  LayeredDagScratch scratch;
  LayeredPath out;
  const std::vector<Cost> nodeTable(18, 1);
  EXPECT_THROW(LayeredDagSolver::solveMeshFlatInto(*mesh.links, 2, nodeTable,
                                                   -1, scratch, out),
               std::invalid_argument);
  EXPECT_THROW(LayeredDagSolver::solveMeshFlatInto(*mesh.links, 3, nodeTable,
                                                   1, scratch, out),
               std::invalid_argument);
  CostBuffer dp;
  EXPECT_THROW(LayeredDagSolver::solveMeshFlatResumeInto(
                   *mesh.links, 2, nodeTable, 1, 1, dp, scratch, out),
               std::invalid_argument);
  std::vector<Cost> row(8, 0);
  EXPECT_THROW(meshMinPlusInto(*mesh.links, row, 1, row),
               std::invalid_argument);
}

}  // namespace
}  // namespace pimsched
