#include "core/placement.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "center_list.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

/// Random hosting costs over few values (so ties are common), with about
/// one processor in five priced kInfiniteCost.
std::vector<Cost> randomRow(testutil::Rng& rng, int procs) {
  std::vector<Cost> row(static_cast<std::size_t>(procs));
  for (Cost& c : row) {
    c = rng.below(5) == 0 ? kInfiniteCost : rng.range(0, 3);
  }
  return row;
}

ProcId argminOf(const std::vector<Cost>& row, const OccupancyMap& occ) {
  return argminWithRoom(
      static_cast<ProcId>(row.size()),
      [&](ProcId p) { return row[static_cast<std::size_t>(p)]; },
      [&](ProcId p) { return occ.hasRoom(p); });
}

WindowedRefs refsOf(const ReferenceTrace& trace, const Grid& grid,
                    int windows) {
  return WindowedRefs(
      trace, WindowPartition::evenCount(trace.numSteps(), windows), grid);
}

TEST(Placement, ArgminMatchesCenterListOnRandomRows) {
  testutil::Rng rng(1701);
  for (int trial = 0; trial < 500; ++trial) {
    const Grid g(static_cast<int>(rng.range(1, 5)),
                 static_cast<int>(rng.range(1, 6)));
    OccupancyMap occ(g, rng.range(0, 2));
    for (ProcId p = 0; p < g.size(); ++p) {
      if (rng.below(6) == 0) occ.limitCapacity(p, 0);
    }
    for (std::uint64_t k = rng.below(8); k > 0; --k) {
      occ.tryPlace(static_cast<ProcId>(
          rng.below(static_cast<std::uint64_t>(g.size()))));
    }
    const std::vector<Cost> row = randomRow(rng, g.size());
    ASSERT_EQ(argminOf(row, occ), CenterList(row).firstAvailable(occ))
        << "trial " << trial;
  }
}

TEST(Placement, ArgminFindsNothingWhenEveryProcessorIsFullOrInfinite) {
  const Grid g(2, 3);
  const std::vector<Cost> row = {4, 1, 1, 0, 2, 3};
  const OccupancyMap full(g, 0);
  EXPECT_EQ(argminOf(row, full), kNoProc);
  EXPECT_EQ(CenterList(row).firstAvailable(full), kNoProc);

  const std::vector<Cost> infinite(6, kInfiniteCost);
  const OccupancyMap empty(g, 1);
  EXPECT_EQ(argminOf(infinite, empty), kNoProc);
  EXPECT_EQ(CenterList(infinite).firstAvailable(empty), kNoProc);
}

TEST(Placement, ArgminBreaksTiesTowardTheSmallestIdWithRoom) {
  const Grid g(1, 5);
  const std::vector<Cost> row = {2, 1, 3, 1, 1};
  OccupancyMap occ(g, 1);
  EXPECT_EQ(argminOf(row, occ), 1);
  occ.tryPlace(1);
  EXPECT_EQ(argminOf(row, occ), 3);
  occ.tryPlace(3);
  EXPECT_EQ(argminOf(row, occ), 4);
  occ.tryPlace(4);
  EXPECT_EQ(argminOf(row, occ), 0);
}

TEST(Placement, ZeroBetaUnreferencedCellTakesTheSmallestIdWithRoom) {
  // LOMCDS keys an unreferenced cell by moveCost(prev, .). With beta = 0
  // every move is free, so the cell goes to the smallest id with room,
  // not to prev; with beta > 0 it stays at prev while prev has room.
  const Grid g(3, 3);
  const ProcId prev = 4;
  for (const Cost volume : {Cost{0}, Cost{1}}) {
    const CostModel model(g, CostParams{1, volume});
    std::vector<Cost> row(static_cast<std::size_t>(g.size()));
    for (ProcId p = 0; p < g.size(); ++p) {
      row[static_cast<std::size_t>(p)] = model.moveCost(prev, p);
    }
    OccupancyMap occ(g, 1);
    occ.tryPlace(0);
    const ProcId expect = volume == 0 ? 1 : prev;
    EXPECT_EQ(argminOf(row, occ), expect) << "moveVolume " << volume;
    EXPECT_EQ(CenterList(row).firstAvailable(occ), expect);
  }
}

TEST(Placement, WindowArgminMatchesCenterListAsSlotsFill) {
  // The member argmin reads the full-slot mirror; the oracle reads a
  // shadow occupancy filled by the same placements.
  testutil::Rng rng(1702);
  const Grid g(3, 4);
  const CostModel model(g);
  const ReferenceTrace trace = testutil::randomTrace(rng, g, 4, 4, 8, 6);
  const WindowedRefs refs = refsOf(trace, g, 4);
  const int W = refs.numWindows();
  Placement placement(refs, model, 2, DataOrder::kById);
  std::vector<OccupancyMap> shadow(static_cast<std::size_t>(W),
                                   OccupancyMap(g, 2));
  for (int step = 0; step < 200; ++step) {
    const std::vector<Cost> row = randomRow(rng, g.size());
    const auto key = [&](ProcId p) { return row[static_cast<std::size_t>(p)]; };
    const auto begin = static_cast<WindowId>(
        rng.below(static_cast<std::uint64_t>(W)));
    const auto end = static_cast<WindowId>(rng.range(begin + 1, W));
    ProcId expect = kNoProc;
    const CenterList list(row);
    for (const ProcId p : list.order()) {
      if (row[static_cast<std::size_t>(p)] >= kInfiniteCost) break;
      bool room = true;
      for (WindowId w = begin; w < end; ++w) {
        room = room && shadow[static_cast<std::size_t>(w)].hasRoom(p);
      }
      if (room) {
        expect = p;
        break;
      }
    }
    if (end == begin + 1) {
      ASSERT_EQ(expect, list.firstAvailable(
                            shadow[static_cast<std::size_t>(begin)]));
    }
    const ProcId got = placement.argminWithRoom(begin, end, key);
    ASSERT_EQ(got, expect) << "step " << step;
    if (got == kNoProc) continue;
    for (WindowId w = begin; w < end; ++w) {
      placement.place(0, w, got);
      shadow[static_cast<std::size_t>(w)].tryPlace(got);
    }
  }
}

TEST(Placement, MirrorFollowsPlacements) {
  testutil::Rng rng(1703);
  const Grid g(2, 2);
  const CostModel model(g);
  const ReferenceTrace trace = testutil::randomTrace(rng, g, 2, 2, 4, 4);
  const WindowedRefs refs = refsOf(trace, g, 2);
  Placement placement(refs, model, 1, DataOrder::kById);
  LayeredPath path;
  path.total = 0;
  path.nodes = {3, 3};
  EXPECT_TRUE(placement.fits(path));
  placement.place(0, 1, 3);
  EXPECT_TRUE(placement.hasRoom(0, 3));
  EXPECT_FALSE(placement.hasRoom(1, 3));
  EXPECT_FALSE(placement.roomEverywhere(3, 0, 2));
  EXPECT_FALSE(placement.fits(path));
  CostBuffer costs(8, 7);
  placement.mask(costs);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(costs[i], i == 4 + 3 ? kInfiniteCost : 7) << i;
  }
  EXPECT_EQ(placement.schedule().center(0, 1), 3);
}

TEST(Placement, PlaceOnAFullSlotIsALogicError) {
  testutil::Rng rng(1704);
  const Grid g(2, 2);
  const CostModel model(g);
  const ReferenceTrace trace = testutil::randomTrace(rng, g, 2, 2, 4, 4);
  const WindowedRefs refs = refsOf(trace, g, 1);
  Placement placement(refs, model, 1, DataOrder::kById);
  placement.place(0, 0, 2);
  EXPECT_THROW(placement.place(1, 0, 2), std::logic_error);
}

}  // namespace
}  // namespace pimsched
