#include "cost/cost_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_util.hpp"

namespace pimsched {
namespace {

TEST(CostModel, ServeCostHandComputed) {
  const Grid g(4, 4);
  const CostModel model(g);
  const std::vector<ProcWeight> refs = {{g.id(0, 0), 2}, {g.id(3, 3), 1}};
  // From center (1,1): 2*2 + 1*4 = 8.
  EXPECT_EQ(model.serveCost(refs, g.id(1, 1)), 8);
  // From (0,0): 0 + 6.
  EXPECT_EQ(model.serveCost(refs, g.id(0, 0)), 6);
}

TEST(CostModel, SelfReferenceIsFree) {
  const Grid g(2, 2);
  const CostModel model(g);
  const std::vector<ProcWeight> refs = {{1, 100}};
  EXPECT_EQ(model.serveCost(refs, 1), 0);
}

TEST(CostModel, EmptyRefsAreFree) {
  const Grid g(2, 2);
  const CostModel model(g);
  EXPECT_EQ(model.serveCost({}, 0), 0);
}

TEST(CostModel, MoveCostIsVolumeTimesDistance) {
  const Grid g(4, 4);
  const CostModel unit(g);
  EXPECT_EQ(unit.moveCost(g.id(0, 0), g.id(3, 3)), 6);
  EXPECT_EQ(unit.moveCost(5, 5), 0);

  const CostModel bulky(g, CostParams{1, 7});
  EXPECT_EQ(bulky.moveCost(g.id(0, 0), g.id(3, 3)), 42);

  const CostModel pricey(g, CostParams{3, 7});
  EXPECT_EQ(pricey.moveCost(g.id(0, 0), g.id(3, 3)), 126);
}

TEST(CostModel, HopCostScalesServe) {
  const Grid g(3, 3);
  const CostModel unit(g);
  const CostModel triple(g, CostParams{3, 1});
  testutil::Rng rng(211);
  for (int trial = 0; trial < 20; ++trial) {
    const auto refs = testutil::randomRefs(rng, g, 8);
    for (ProcId p = 0; p < g.size(); ++p) {
      EXPECT_EQ(triple.serveCost(refs, p), 3 * unit.serveCost(refs, p));
    }
  }
}

TEST(CostModel, ServeCostIsSymmetricUnderSwap) {
  // Serving refs at {p} from center c == serving refs at {c} from p.
  const Grid g(4, 4);
  const CostModel model(g);
  for (ProcId a = 0; a < g.size(); a += 3) {
    for (ProcId b = 0; b < g.size(); b += 2) {
      const std::vector<ProcWeight> atA = {{a, 5}};
      const std::vector<ProcWeight> atB = {{b, 5}};
      EXPECT_EQ(model.serveCost(atA, b), model.serveCost(atB, a));
    }
  }
}

TEST(CostModel, TriangleInequalityOnMoves) {
  const Grid g(5, 5);
  const CostModel model(g);
  testutil::Rng rng(212);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = static_cast<ProcId>(rng.below(25));
    const auto b = static_cast<ProcId>(rng.below(25));
    const auto c = static_cast<ProcId>(rng.below(25));
    EXPECT_LE(model.moveCost(a, c),
              model.moveCost(a, b) + model.moveCost(b, c));
  }
}

// beta = hopCost * moveVolume may reach maxChamferBeta(grid) and not one
// past it; negative factors and an overflowing product are rejected too.
TEST(CostModel, RejectsAMoveCostPastTheChamferBound) {
  const Grid g(3, 4);
  const Cost bound = (INT64_MAX - kInfiniteCost) / (2 * Cost{3 + 4} + 2);
  ASSERT_EQ(maxChamferBeta(g), bound);
  EXPECT_NO_THROW(CostModel(g, CostParams{1, bound}));
  EXPECT_NO_THROW(CostModel(g, CostParams{0, INT64_MAX}));
  EXPECT_THROW(CostModel(g, CostParams{1, bound + 1}), std::invalid_argument);
  EXPECT_THROW(CostModel(g, CostParams{bound + 1, 1}), std::invalid_argument);
  EXPECT_THROW(CostModel(g, CostParams{-1, 1}), std::invalid_argument);
  EXPECT_THROW(CostModel(g, CostParams{1, -1}), std::invalid_argument);
  EXPECT_THROW(CostModel(g, CostParams{-1, -1}), std::invalid_argument);
  EXPECT_THROW(CostModel(g, CostParams{INT64_MAX / 2, 3}),
               std::invalid_argument);

  const FaultMap faults(g);
  const DistanceMap distances(g, faults);
  EXPECT_NO_THROW(CostModel(g, distances, CostParams{1, bound}));
  EXPECT_THROW(CostModel(g, distances, CostParams{1, bound + 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pimsched
