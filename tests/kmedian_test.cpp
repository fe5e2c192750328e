#include "ablation/kmedian.hpp"

#include <gtest/gtest.h>

#include "cost/center_costs.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

TEST(NearestCenterCost, SingleCenterMatchesServeCost) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(111);
  for (int trial = 0; trial < 20; ++trial) {
    const auto refs = testutil::randomRefs(rng, g, 10);
    for (ProcId p = 0; p < g.size(); p += 3) {
      const std::vector<ProcId> centers = {p};
      EXPECT_EQ(nearestCenterCost(model, refs, centers),
                model.serveCost(refs, p));
    }
  }
}

TEST(NearestCenterCost, PicksNearestPerReference) {
  const Grid g(1, 5);
  const CostModel model(g);
  const std::vector<ProcWeight> refs = {{0, 1}, {4, 1}};
  const std::vector<ProcId> centers = {0, 4};
  EXPECT_EQ(nearestCenterCost(model, refs, centers), 0);
  const std::vector<ProcId> mid = {2};
  EXPECT_EQ(nearestCenterCost(model, refs, mid), 4);
}

TEST(NearestCenterCost, EmptyRefsCostZero) {
  const Grid g(2, 2);
  const CostModel model(g);
  const std::vector<ProcId> centers = {0};
  EXPECT_EQ(nearestCenterCost(model, {}, centers), 0);
}

TEST(NearestCenterCost, NoCentersThrows) {
  const Grid g(2, 2);
  const CostModel model(g);
  const std::vector<ProcWeight> refs = {{0, 1}};
  EXPECT_THROW((void)nearestCenterCost(model, refs, {}),
               std::invalid_argument);
}

TEST(KMedian, KOneIsExactWeightedMedian) {
  const Grid g(5, 5);
  const CostModel model(g);
  testutil::Rng rng(112);
  for (int trial = 0; trial < 30; ++trial) {
    const auto refs = testutil::randomRefs(rng, g, 8);
    const KMedianResult r = kMedian(model, refs, 1);
    const BestCenter exact = bestCenter(model, refs);
    ASSERT_EQ(r.centers.size(), 1u);
    EXPECT_EQ(r.cost, exact.cost);
  }
}

TEST(KMedian, CostIsMonotoneNonIncreasingInK) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(113);
  for (int trial = 0; trial < 10; ++trial) {
    const auto refs = testutil::randomRefs(rng, g, 20);
    Cost prev = kInfiniteCost;
    for (int k = 1; k <= 6; ++k) {
      const KMedianResult r = kMedian(model, refs, k);
      EXPECT_LE(r.cost, prev);
      prev = r.cost;
    }
  }
}

TEST(KMedian, EnoughCentersReachZero) {
  const Grid g(4, 4);
  const CostModel model(g);
  const std::vector<ProcWeight> refs = {{1, 3}, {7, 2}, {12, 5}};
  const KMedianResult r = kMedian(model, refs, 3);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.centers, (std::vector<ProcId>{1, 7, 12}));
}

TEST(KMedian, ReportedCostMatchesEvaluation) {
  const Grid g(6, 6);
  const CostModel model(g);
  testutil::Rng rng(114);
  for (int trial = 0; trial < 10; ++trial) {
    const auto refs = testutil::randomRefs(rng, g, 15);
    for (int k = 1; k <= 4; ++k) {
      const KMedianResult r = kMedian(model, refs, k);
      EXPECT_EQ(r.cost, nearestCenterCost(model, refs, r.centers));
    }
  }
}

TEST(KMedian, MatchesExhaustiveOnSmallGrid) {
  // 2x3 grid, k = 2: enumerate all 15 center pairs.
  const Grid g(2, 3);
  const CostModel model(g);
  testutil::Rng rng(115);
  for (int trial = 0; trial < 30; ++trial) {
    const auto refs = testutil::randomRefs(rng, g, 8);
    Cost best = kInfiniteCost;
    for (ProcId a = 0; a < g.size(); ++a) {
      for (ProcId b = a + 1; b < g.size(); ++b) {
        const std::vector<ProcId> centers = {a, b};
        best = std::min(best, nearestCenterCost(model, refs, centers));
      }
    }
    const KMedianResult r = kMedian(model, refs, 2);
    // The greedy + swap heuristic is exact on instances this small in
    // practice; require it not to be worse than 10% off, and never better
    // than the optimum.
    EXPECT_GE(r.cost, best);
    EXPECT_LE(r.cost, best + best / 10 + 1);
  }
}

TEST(KMedian, EmptyRefsAndBadK) {
  const Grid g(2, 2);
  const CostModel model(g);
  const KMedianResult r = kMedian(model, {}, 3);
  EXPECT_EQ(r.cost, 0);
  EXPECT_THROW((void)kMedian(model, {}, 0), std::invalid_argument);
}

TEST(KMedian, Deterministic) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(116);
  const auto refs = testutil::randomRefs(rng, g, 25);
  const KMedianResult a = kMedian(model, refs, 3);
  const KMedianResult b = kMedian(model, refs, 3);
  EXPECT_EQ(a.centers, b.centers);
  EXPECT_EQ(a.cost, b.cost);
}

}  // namespace
}  // namespace pimsched
