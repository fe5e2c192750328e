#include "pim/memory.hpp"

#include <gtest/gtest.h>

namespace pimsched {
namespace {

TEST(OccupancyMap, StartsEmpty) {
  const Grid g(2, 2);
  const OccupancyMap occ(g, 3);
  for (ProcId p = 0; p < g.size(); ++p) {
    EXPECT_EQ(occ.used(p), 0);
    EXPECT_TRUE(occ.hasRoom(p));
  }
}

TEST(OccupancyMap, FillsToCapacity) {
  const Grid g(2, 2);
  OccupancyMap occ(g, 2);
  EXPECT_TRUE(occ.tryPlace(0));
  EXPECT_TRUE(occ.tryPlace(0));
  EXPECT_FALSE(occ.hasRoom(0));
  EXPECT_FALSE(occ.tryPlace(0));
  EXPECT_EQ(occ.used(0), 2);
  EXPECT_TRUE(occ.hasRoom(1));
}

TEST(OccupancyMap, UnlimitedCapacity) {
  const Grid g(1, 1);
  OccupancyMap occ(g, -1);
  EXPECT_TRUE(occ.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(occ.tryPlace(0));
  EXPECT_EQ(occ.used(0), 1000);
}

TEST(OccupancyMap, ZeroCapacityRejectsEverything) {
  const Grid g(2, 2);
  OccupancyMap occ(g, 0);
  EXPECT_FALSE(occ.tryPlace(0));
}

TEST(OccupancyMap, LimitCapacityTightensOneProcessor) {
  const Grid g(2, 2);
  OccupancyMap occ(g, 3);
  occ.limitCapacity(1, 1);
  EXPECT_EQ(occ.capacityOf(1), 1);
  EXPECT_EQ(occ.capacityOf(0), 3);  // others keep the uniform bound
  EXPECT_TRUE(occ.tryPlace(1));
  EXPECT_FALSE(occ.hasRoom(1));
  EXPECT_FALSE(occ.tryPlace(1));
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(occ.tryPlace(0));
  EXPECT_FALSE(occ.hasRoom(0));
}

TEST(OccupancyMap, LimitCapacityOnlyEverShrinks) {
  const Grid g(2, 2);
  OccupancyMap occ(g, 5);
  occ.limitCapacity(0, 2);
  occ.limitCapacity(0, 4);  // looser limit is ignored
  EXPECT_EQ(occ.capacityOf(0), 2);
  occ.limitCapacity(0, 1);  // tighter limit applies
  EXPECT_EQ(occ.capacityOf(0), 1);
}

TEST(OccupancyMap, LimitCapacityBoundsAnUnlimitedMap) {
  const Grid g(2, 2);
  OccupancyMap occ(g, -1);
  EXPECT_TRUE(occ.unlimited());
  occ.limitCapacity(2, 2);
  EXPECT_EQ(occ.capacityOf(2), 2);
  EXPECT_LT(occ.capacityOf(0), 0);  // untouched procs stay unlimited
  EXPECT_TRUE(occ.tryPlace(2));
  EXPECT_TRUE(occ.tryPlace(2));
  EXPECT_FALSE(occ.tryPlace(2));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(occ.tryPlace(0));
}

TEST(OccupancyMap, ZeroLimitModelsADeadProcessor) {
  const Grid g(2, 2);
  OccupancyMap occ(g, 4);
  occ.limitCapacity(3, 0);
  EXPECT_FALSE(occ.hasRoom(3));
  EXPECT_FALSE(occ.tryPlace(3));
  EXPECT_EQ(occ.used(3), 0);
}

TEST(PaperCapacity, TwiceTheMinimum) {
  const Grid g(4, 4);
  // 8x8 data on 4x4 procs: minimum 4, paper memory size 8.
  EXPECT_EQ(paperCapacity(g, 64), 8);
  // 2 arrays of 8x8 (matmul): minimum 8 -> 16.
  EXPECT_EQ(paperCapacity(g, 128), 16);
  // Non-divisible: 65 data -> ceil = 5 -> 10.
  EXPECT_EQ(paperCapacity(g, 65), 10);
}

TEST(PaperCapacity, AlwaysFeasible) {
  const Grid g(3, 5);
  for (std::int64_t d = 1; d < 200; d += 7) {
    EXPECT_GE(paperCapacity(g, d) * g.size(), d);
  }
}

}  // namespace
}  // namespace pimsched
