#include "center_list.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace pimsched {
namespace {

TEST(CenterList, SortsAscendingByCost) {
  const std::vector<Cost> costs = {5, 1, 3, 1};
  const CenterList list(costs);
  ASSERT_EQ(list.order().size(), 4u);
  EXPECT_EQ(list.order()[0], 1);  // cost 1, smaller id first on tie
  EXPECT_EQ(list.order()[1], 3);  // cost 1
  EXPECT_EQ(list.order()[2], 2);  // cost 3
  EXPECT_EQ(list.order()[3], 0);  // cost 5
}

TEST(CenterList, CostLookup) {
  const std::vector<Cost> costs = {5, 1, 3, 1};
  const CenterList list(costs);
  EXPECT_EQ(list.costAt(0), 5);
  EXPECT_EQ(list.costAt(3), 1);
}

TEST(CenterList, FirstAvailableSkipsFullProcessors) {
  const Grid g(2, 2);
  const std::vector<Cost> costs = {5, 1, 3, 1};
  const CenterList list(costs);
  OccupancyMap occ(g, 1);
  EXPECT_EQ(list.firstAvailable(occ), 1);
  occ.tryPlace(1);
  EXPECT_EQ(list.firstAvailable(occ), 3);
  occ.tryPlace(3);
  EXPECT_EQ(list.firstAvailable(occ), 2);
}

TEST(CenterList, ReturnsNoProcWhenEverythingFull) {
  const Grid g(1, 2);
  const CenterList list(std::vector<Cost>{1, 2});
  OccupancyMap occ(g, 0);
  EXPECT_EQ(list.firstAvailable(occ), kNoProc);
}

TEST(CenterList, OrderIsAPermutation) {
  testutil::Rng rng(5);
  std::vector<Cost> costs;
  for (int i = 0; i < 25; ++i) costs.push_back(rng.range(0, 9));
  const CenterList list(costs);
  std::vector<bool> seen(costs.size(), false);
  for (const ProcId p : list.order()) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
  // Ascending costs.
  for (std::size_t i = 1; i < list.order().size(); ++i) {
    EXPECT_LE(list.costAt(list.order()[i - 1]),
              list.costAt(list.order()[i]));
  }
}

}  // namespace
}  // namespace pimsched
