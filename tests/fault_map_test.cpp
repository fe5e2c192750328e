#include "fault/fault_map.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/distance_map.hpp"
#include "fault/fault_trace.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"

namespace pimsched {
namespace {

TEST(FaultMap, FreshMapHasNoFaults) {
  const Grid g(4, 4);
  const FaultMap f(g);
  EXPECT_FALSE(f.anyFaults());
  EXPECT_EQ(f.deadProcCount(), 0);
  EXPECT_EQ(f.deadLinkCount(), 0);
  EXPECT_EQ(f.aliveProcCount(), 16);
  for (ProcId p = 0; p < g.size(); ++p) {
    EXPECT_TRUE(f.procAlive(p));
    EXPECT_EQ(f.capacityLimit(p), -1);
  }
}

TEST(FaultMap, KillProcIsIdempotent) {
  const Grid g(4, 4);
  FaultMap f(g);
  f.killProc(5);
  f.killProc(5);
  EXPECT_EQ(f.deadProcCount(), 1);
  EXPECT_TRUE(f.procDead(5));
  EXPECT_EQ(f.aliveProcCount(), 15);
  EXPECT_EQ(f.capacityLimit(5), 0);
}

TEST(FaultMap, DeadEndpointKillsEveryTouchingLink) {
  const Grid g(4, 4);
  FaultMap f(g);
  f.killProc(5);
  // 5's mesh neighbors on a 4x4: 1 (N), 9 (S), 4 (W), 6 (E).
  for (const ProcId n : {1, 9, 4, 6}) {
    EXPECT_TRUE(f.linkDead(5, n));
    EXPECT_TRUE(f.linkDead(n, 5));
  }
  EXPECT_FALSE(f.linkDead(1, 2));
}

TEST(FaultMap, KilledLinkIsDirected) {
  const Grid g(4, 4);
  FaultMap f(g);
  f.killLink(1, 2);
  EXPECT_TRUE(f.linkDead(1, 2));
  EXPECT_FALSE(f.linkDead(2, 1));
  EXPECT_EQ(f.deadLinkCount(), 1);
  EXPECT_TRUE(f.anyFaults());
}

TEST(FaultMap, KillLinkRejectsNonAdjacent) {
  const Grid g(4, 4);
  FaultMap f(g);
  EXPECT_THROW(f.killLink(0, 2), std::invalid_argument);
  EXPECT_THROW(f.killLink(0, 0), std::invalid_argument);
}

TEST(FaultMap, RowColAndRegionKills) {
  const Grid g(4, 4);
  FaultMap rows(g);
  rows.killRow(2);
  EXPECT_EQ(rows.deadProcCount(), 4);
  for (int c = 0; c < 4; ++c) EXPECT_TRUE(rows.procDead(g.id(2, c)));

  FaultMap cols(g);
  cols.killCol(0);
  EXPECT_EQ(cols.deadProcCount(), 4);
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(cols.procDead(g.id(r, 0)));

  FaultMap region(g);
  region.killRegion(1, 1, 2, 2);
  EXPECT_EQ(region.deadProcCount(), 4);
  EXPECT_TRUE(region.procDead(g.id(1, 1)));
  EXPECT_TRUE(region.procDead(g.id(2, 2)));
  EXPECT_FALSE(region.procDead(g.id(0, 0)));
}

TEST(FaultMap, LimitCapacityOnlyTightens) {
  const Grid g(2, 2);
  FaultMap f(g);
  f.limitCapacity(1, 5);
  EXPECT_EQ(f.capacityLimit(1), 5);
  f.limitCapacity(1, 7);  // looser: ignored
  EXPECT_EQ(f.capacityLimit(1), 5);
  f.limitCapacity(1, 2);
  EXPECT_EQ(f.capacityLimit(1), 2);
  EXPECT_TRUE(f.anyFaults());
}

TEST(FaultMap, ClearRemovesEverything) {
  const Grid g(3, 3);
  FaultMap f(g);
  f.killProc(0);
  f.killLink(4, 5);
  f.limitCapacity(8, 1);
  f.clear();
  EXPECT_FALSE(f.anyFaults());
  EXPECT_EQ(f.aliveProcCount(), 9);
  EXPECT_EQ(f.capacityLimit(8), -1);
}

TEST(FaultMap, UniformProcInjectionIsDeterministic) {
  const Grid g(4, 4);
  FaultMap a(g), b(g);
  a.injectUniformProcs(4, 42);
  b.injectUniformProcs(4, 42);
  EXPECT_EQ(a.deadProcCount(), 4);
  for (ProcId p = 0; p < g.size(); ++p) {
    EXPECT_EQ(a.procDead(p), b.procDead(p));
  }
  FaultMap c(g);
  c.injectUniformProcs(4, 43);  // different seed, still exactly 4 dead
  EXPECT_EQ(c.deadProcCount(), 4);
}

TEST(FaultMap, UniformProcInjectionRejectsOverdraw) {
  const Grid g(2, 2);
  FaultMap f(g);
  f.killProc(0);
  EXPECT_THROW(f.injectUniformProcs(4, 1), std::invalid_argument);
}

TEST(FaultMap, UniformLinkInjectionIsDeterministic) {
  const Grid g(4, 4);
  FaultMap a(g), b(g);
  a.injectUniformLinks(5, 7);
  b.injectUniformLinks(5, 7);
  EXPECT_EQ(a.deadLinkCount(), 5);
  EXPECT_EQ(b.deadLinkCount(), 5);
  for (ProcId p = 0; p < g.size(); ++p) {
    for (const ProcId n : g.neighbors(p)) {
      EXPECT_EQ(a.linkDead(p, n), b.linkDead(p, n));
    }
  }
}

TEST(FaultMap, DeadProcMaskMatchesQueries) {
  const Grid g(3, 3);
  FaultMap f(g);
  f.killProc(4);
  f.killProc(8);
  const std::vector<char>& mask = f.deadProcMask();
  ASSERT_EQ(mask.size(), 9u);
  for (ProcId p = 0; p < g.size(); ++p) {
    EXPECT_EQ(mask[static_cast<std::size_t>(p)] != 0, f.procDead(p));
  }
}

TEST(FaultMap, ApplyFaultCapacityZerosDeadAndCapsLimited) {
  const Grid g(2, 2);
  FaultMap f(g);
  f.killProc(0);
  f.limitCapacity(1, 1);
  OccupancyMap occ(g, 3);
  applyFaultCapacity(occ, f);
  EXPECT_FALSE(occ.tryPlace(0));  // dead: capacity 0
  EXPECT_TRUE(occ.tryPlace(1));
  EXPECT_FALSE(occ.tryPlace(1));  // limited to 1
  EXPECT_TRUE(occ.tryPlace(2));
  EXPECT_TRUE(occ.tryPlace(2));
  EXPECT_TRUE(occ.tryPlace(2));
  EXPECT_FALSE(occ.tryPlace(2));  // plain capacity 3 still applies
}

TEST(FaultMap, SummaryCountsEachClass) {
  const Grid g(3, 3);
  FaultMap f(g);
  f.killProc(0);
  f.killProc(1);
  f.killLink(4, 5);
  f.limitCapacity(8, 2);
  EXPECT_EQ(f.summary(), "procs=2 links=1 caps=1");
}

// --- applyFaultSpec grammar -----------------------------------------------

TEST(FaultSpec, EveryFormApplies) {
  const Grid g(4, 4);
  FaultMap f(g);
  applyFaultSpec(f, "proc:5");
  EXPECT_TRUE(f.procDead(5));
  applyFaultSpec(f, "link:1-2");
  EXPECT_TRUE(f.linkDead(1, 2));
  applyFaultSpec(f, "row:3");
  EXPECT_TRUE(f.procDead(g.id(3, 0)));
  applyFaultSpec(f, "col:0");
  EXPECT_TRUE(f.procDead(g.id(0, 0)));
  applyFaultSpec(f, "region:1,1,1,2");
  EXPECT_TRUE(f.procDead(g.id(1, 2)));
  applyFaultSpec(f, "cap:7=2");
  EXPECT_EQ(f.capacityLimit(7), 2);

  FaultMap u(g);
  applyFaultSpec(u, "uniform-procs:3@42");
  EXPECT_EQ(u.deadProcCount(), 3);
  applyFaultSpec(u, "uniform-links:2@7");
  EXPECT_EQ(u.deadLinkCount(), 2);
}

TEST(FaultMap, MutationsBumpOnlyOnEffectiveChanges) {
  const Grid g(4, 4);
  FaultMap f(g);
  EXPECT_EQ(f.mutations(), 0);
  f.killProc(5);
  EXPECT_EQ(f.mutations(), 1);
  f.killProc(5);  // already dead: no state change
  EXPECT_EQ(f.mutations(), 1);
  f.killLink(0, 1);
  EXPECT_EQ(f.mutations(), 2);
  f.killLink(0, 1);
  EXPECT_EQ(f.mutations(), 2);
  f.limitCapacity(7, 3);
  EXPECT_EQ(f.mutations(), 3);
  f.limitCapacity(7, 5);  // looser than the current bound: ignored
  EXPECT_EQ(f.mutations(), 3);
  f.limitCapacity(7, 1);  // tighter: counts
  EXPECT_EQ(f.mutations(), 4);
  f.clear();
  EXPECT_EQ(f.mutations(), 5);
  f.clear();  // nothing left to remove
  EXPECT_EQ(f.mutations(), 5);
}

TEST(FaultSpec, DuplicateSpecsReturnFalseAndAreCounted) {
  const Grid g(4, 4);
  FaultMap f(g);
#ifndef PIMSCHED_NO_OBS
  const std::int64_t before =
      obs::Registry::instance().counterValue("fault.spec.duplicates");
#endif
  EXPECT_TRUE(applyFaultSpec(f, "proc:5"));
  EXPECT_FALSE(applyFaultSpec(f, "proc:5"));  // no-op: proc 5 already dead
  EXPECT_TRUE(applyFaultSpec(f, "row:1"));
  // row:1 killed procs 4..7, so this region adds nothing new.
  EXPECT_FALSE(applyFaultSpec(f, "region:1,0,1,3"));
  EXPECT_TRUE(applyFaultSpec(f, "cap:0=2"));
  EXPECT_FALSE(applyFaultSpec(f, "cap:0=3"));  // looser bound: no-op
  EXPECT_TRUE(applyFaultSpec(f, "cap:0=1"));
#ifndef PIMSCHED_NO_OBS
  const std::int64_t after =
      obs::Registry::instance().counterValue("fault.spec.duplicates");
  EXPECT_EQ(after - before, 3);
#endif
}

TEST(FaultSpec, PartialOverlapStillCountsAsAChange) {
  const Grid g(4, 4);
  FaultMap f(g);
  EXPECT_TRUE(applyFaultSpec(f, "proc:5"));
  // region 1,1..2,2 covers the dead proc 5 plus three live ones: the spec
  // changes the map, so it is not a duplicate.
  EXPECT_TRUE(applyFaultSpec(f, "region:1,1,2,2"));
}

TEST(FaultSpec, MalformedSpecsThrow) {
  const Grid g(4, 4);
  FaultMap f(g);
  EXPECT_THROW(applyFaultSpec(f, ""), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "proc"), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "proc:"), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "proc:99"), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "link:0-5"), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "row:9"), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "cap:1=-2"), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "banana:1"), std::invalid_argument);
  EXPECT_THROW(applyFaultSpec(f, "uniform-procs:3"), std::invalid_argument);
}

// --- DistanceMap ----------------------------------------------------------

TEST(DistanceMap, FaultFreeEqualsManhattan) {
  const Grid g(4, 5);
  const FaultMap f(g);
  const DistanceMap d(g, f);
  EXPECT_FALSE(d.partitioned());
  for (ProcId a = 0; a < g.size(); ++a) {
    for (ProcId b = 0; b < g.size(); ++b) {
      EXPECT_EQ(d.hopDistance(a, b), g.manhattan(a, b));
    }
  }
}

TEST(DistanceMap, RoutesAroundDeadProcessor) {
  const Grid g(3, 3);
  FaultMap f(g);
  f.killProc(4);  // center of the 3x3
  const DistanceMap d(g, f);
  EXPECT_FALSE(d.partitioned());
  // 1 -> 7 must detour around the dead center: 2 straight, 4 around.
  EXPECT_EQ(d.hopDistance(g.id(0, 1), g.id(2, 1)), 4);
  EXPECT_GE(d.hopDistance(g.id(0, 1), g.id(2, 1)), g.manhattan(1, 7));
}

TEST(DistanceMap, DeadProcessorIsUnreachable) {
  const Grid g(3, 3);
  FaultMap f(g);
  f.killProc(4);
  const DistanceMap d(g, f);
  EXPECT_FALSE(d.alive(4));
  EXPECT_GE(d.hopDistance(0, 4), kInfiniteCost);
  EXPECT_GE(d.hopDistance(4, 0), kInfiniteCost);
}

TEST(DistanceMap, DirectedLinkFaultIsAsymmetric) {
  const Grid g(1, 2);
  FaultMap f(g);
  f.killLink(0, 1);
  const DistanceMap d(g, f);
  EXPECT_GE(d.hopDistance(0, 1), kInfiniteCost);
  EXPECT_EQ(d.hopDistance(1, 0), 1);
  EXPECT_TRUE(d.partitioned());
}

TEST(DistanceMap, RowKillPartitionsTheMesh) {
  const Grid g(4, 4);
  FaultMap f(g);
  f.killRow(1);
  const DistanceMap d(g, f);
  EXPECT_TRUE(d.partitioned());
  EXPECT_GE(d.hopDistance(g.id(0, 0), g.id(2, 0)), kInfiniteCost);
  EXPECT_EQ(d.hopDistance(g.id(2, 0), g.id(3, 0)), 1);
}

}  // namespace
}  // namespace pimsched
