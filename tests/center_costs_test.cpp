#include "cost/center_costs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

TEST(AxisCosts, HandComputed) {
  // Weights 2 at 0, 1 at 3 on a 4-slot axis.
  const std::vector<Cost> hist = {2, 0, 0, 1};
  const std::vector<Cost> f = axisCosts(hist);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], 3);   // 2*0 + 1*3
  EXPECT_EQ(f[1], 4);   // 2*1 + 1*2
  EXPECT_EQ(f[2], 5);
  EXPECT_EQ(f[3], 6);
}

TEST(AxisCosts, EmptyAndSingle) {
  EXPECT_TRUE(axisCosts({}).empty());
  const std::vector<Cost> one = {5};
  EXPECT_EQ(axisCosts(one)[0], 0);
}

TEST(AxisCosts, MinimumAtWeightedMedian) {
  // Heavy weight at position 2 dominates.
  const std::vector<Cost> hist = {1, 0, 10, 0, 1};
  const std::vector<Cost> f = axisCosts(hist);
  for (std::size_t x = 0; x < f.size(); ++x) {
    EXPECT_GE(f[x], f[2]);
  }
}

TEST(CenterCosts, SingleReferenceCostIsDistance) {
  const Grid g(4, 4);
  const CostModel model(g);
  const std::vector<ProcWeight> refs = {{g.id(1, 2), 3}};
  const std::vector<Cost> costs = separableCenterCosts(model, refs);
  for (ProcId p = 0; p < g.size(); ++p) {
    EXPECT_EQ(costs[static_cast<std::size_t>(p)],
              3 * g.manhattan(p, g.id(1, 2)));
  }
}

TEST(CenterCosts, EmptyRefsAreFreeEverywhere) {
  const Grid g(3, 3);
  const CostModel model(g);
  for (const Cost c : separableCenterCosts(model, {})) EXPECT_EQ(c, 0);
  const BestCenter best = bestCenter(model, {});
  EXPECT_EQ(best.proc, 0);  // tie toward smallest id
  EXPECT_EQ(best.cost, 0);
}

TEST(CenterCosts, HopCostScalesLinearly) {
  const Grid g(4, 4);
  const CostModel unit(g, CostParams{1, 1});
  const CostModel triple(g, CostParams{3, 1});
  const std::vector<ProcWeight> refs = {{0, 2}, {15, 1}, {5, 4}};
  const auto a = separableCenterCosts(unit, refs);
  const auto b = separableCenterCosts(triple, refs);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b[i], 3 * a[i]);
}

// Property: the separable evaluation must match the brute-force Algorithm 1
// on every grid shape and any reference string.
class CenterCostEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CenterCostEquivalence, SeparableMatchesBruteForce) {
  const auto [rows, cols, seed] = GetParam();
  const Grid g(rows, cols);
  const CostModel model(g);
  testutil::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto refs =
        testutil::randomRefs(rng, g, static_cast<int>(rng.below(30)) + 1);
    const auto brute = bruteForceCenterCosts(model, refs);
    const auto fast = separableCenterCosts(model, refs);
    ASSERT_EQ(brute.size(), fast.size());
    for (std::size_t p = 0; p < brute.size(); ++p) {
      ASSERT_EQ(brute[p], fast[p]) << "grid " << rows << "x" << cols
                                   << " proc " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, CenterCostEquivalence,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 2),
                      std::make_tuple(8, 1, 3), std::make_tuple(4, 4, 4),
                      std::make_tuple(3, 5, 5), std::make_tuple(7, 2, 6),
                      std::make_tuple(6, 6, 7)));

TEST(BestCenter, TieBreaksTowardSmallerId) {
  const Grid g(1, 3);
  const CostModel model(g);
  // Symmetric weights at both ends: positions 0..2 have costs 2,2,2.
  const std::vector<ProcWeight> refs = {{0, 1}, {2, 1}};
  const auto costs = separableCenterCosts(model, refs);
  EXPECT_EQ(costs[0], 2);
  EXPECT_EQ(costs[1], 2);
  EXPECT_EQ(costs[2], 2);
  EXPECT_EQ(bestCenter(model, refs).proc, 0);
}

TEST(BestCenter, MatchesExhaustiveArgmin) {
  const Grid g(5, 4);
  const CostModel model(g);
  testutil::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto refs = testutil::randomRefs(rng, g, 12);
    const BestCenter best = bestCenter(model, refs);
    const auto costs = bruteForceCenterCosts(model, refs);
    for (ProcId p = 0; p < g.size(); ++p) {
      EXPECT_LE(best.cost, costs[static_cast<std::size_t>(p)]);
    }
    EXPECT_EQ(best.cost, costs[static_cast<std::size_t>(best.proc)]);
  }
}

TEST(BestCenter, CenterIsPerAxisWeightedMedian) {
  // DESIGN.md invariant 2: the optimal center is a weighted median on each
  // axis. With odd total weight the weighted median is unique.
  const Grid g(5, 5);
  const CostModel model(g);
  testutil::Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<ProcWeight> refs = testutil::randomRefs(rng, g, 9);
    // Force odd total weight.
    Cost total = 0;
    for (const auto& pw : refs) total += pw.weight;
    if (total % 2 == 0) refs.front().weight += 1;
    total = 0;
    for (const auto& pw : refs) total += pw.weight;

    const BestCenter best = bestCenter(model, refs);
    const Coord bc = g.coord(best.proc);

    // Row axis: weight strictly below the median row < total/2 and weight
    // strictly above < total/2 (equivalently cumulative crosses half).
    Cost below = 0, above = 0;
    for (const auto& pw : refs) {
      const Coord c = g.coord(pw.proc);
      if (c.row < bc.row) below += pw.weight;
      if (c.row > bc.row) above += pw.weight;
    }
    EXPECT_LT(2 * below, total + 1);
    EXPECT_LT(2 * above, total + 1);
  }
}

/// Every row and every whole-datum table of `refs` equals the literal
/// per-center evaluation of Algorithm 1, and empty cells are covered.
void expectRowsMatchBruteForce(const WindowedRefs& refs,
                               const CostModel& model) {
  const std::size_t P = static_cast<std::size_t>(refs.numProcs());
  std::vector<Cost> row(P);
  CostBuffer datum;
  int emptyCells = 0;
  for (DataId d = 0; d < refs.numData(); ++d) {
    datumCenterCostsInto(refs, model, d, datum);
    ASSERT_EQ(datum.size(), static_cast<std::size_t>(refs.numWindows()) * P);
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      emptyCells += refs.refs(d, w).empty() ? 1 : 0;
      const std::vector<Cost> expected =
          bruteForceCenterCosts(model, refs.refs(d, w));
      separableCenterCostsInto(model, refs.refs(d, w), std::span<Cost>(row));
      EXPECT_EQ(row, expected) << "d=" << d << " w=" << w;
      const Cost* inDatum = datum.data() + static_cast<std::size_t>(w) * P;
      EXPECT_EQ(std::vector<Cost>(inDatum, inDatum + P), expected)
          << "d=" << d << " w=" << w;
    }
  }
  EXPECT_GT(emptyCells, 0);
}

TEST(CenterCostRows, MatchBruteForceOnHealthyMesh) {
  const Grid g(4, 5);
  const CostModel model(g);
  testutil::Rng rng(1801);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 6);
  expectRowsMatchBruteForce(
      WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), 6), g),
      model);
}

TEST(CenterCostRows, MatchBruteForceOnFaultedMesh) {
  // Dead centers price kInfiniteCost, and so does every center a dead link
  // detours: the rows must agree with the per-center reading exactly.
  const Grid g(4, 4);
  FaultMap faults(g);
  faults.killProc(5);
  faults.killProc(10);
  faults.killLink(0, 1);
  faults.killLink(14, 15);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  testutil::Rng rng(1802);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 6);
  expectRowsMatchBruteForce(
      WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), 6), g)
          .withProcsMasked(faults.deadProcMask()),
      model);
}

TEST(CenterCostRows, UnreachableReferencingProcessorGivesInfiniteRow) {
  // 1x4 with processor 1 dead: processor 0 is alive but cut off from 2
  // and 3, so a window read by both 0 and 3 has no finite center, and a
  // window read by 0 alone is finite only at 0.
  const Grid g(1, 4);
  FaultMap faults(g);
  faults.killProc(1);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 2);
  t.add(0, 3, 0, 1);
  t.add(1, 0, 0, 1);
  t.add(3, 3, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(4), g);
  ASSERT_TRUE(refs.refs(0, 2).empty());
  expectRowsMatchBruteForce(refs, model);

  std::vector<Cost> row(4);
  separableCenterCostsInto(model, refs.refs(0, 0), std::span<Cost>(row));
  EXPECT_EQ(row, std::vector<Cost>(4, kInfiniteCost));
  separableCenterCostsInto(model, refs.refs(0, 1), std::span<Cost>(row));
  EXPECT_EQ(row, (std::vector<Cost>{0, kInfiniteCost, kInfiniteCost,
                                    kInfiniteCost}));
  // Unreferenced: only the dead center is barred.
  separableCenterCostsInto(model, refs.refs(0, 2), std::span<Cost>(row));
  EXPECT_EQ(row, (std::vector<Cost>{0, kInfiniteCost, 0, 0}));
}

TEST(CenterCostRows, RejectsARowThatIsNotOneEntryPerProcessor) {
  const Grid g(2, 3);
  const CostModel model(g);
  const std::vector<ProcWeight> refs = {{4, 1}};
  std::vector<Cost> shortRow(5);
  EXPECT_THROW(
      separableCenterCostsInto(model, refs, std::span<Cost>(shortRow)),
      std::invalid_argument);
  // The vector form sizes its buffer itself.
  std::vector<Cost> grown;
  separableCenterCostsInto(model, refs, grown);
  EXPECT_EQ(grown, bruteForceCenterCosts(model, refs));
}

}  // namespace
}  // namespace pimsched
