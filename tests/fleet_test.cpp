#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fleet/fleet_service.hpp"
#include "fleet/selector.hpp"
#include "trace/trace.hpp"

namespace pimsched::fleet {
namespace {

ReferenceTrace makeTrace(int n, int steps) {
  ReferenceTrace trace(DataSpace::singleSquare(n));
  const int numData = n * n;
  for (int s = 0; s < steps; ++s) {
    for (int d = 0; d < numData; ++d) {
      trace.add(s, (d + s) % (n * n), d, 1 + (d + s) % 3);
    }
  }
  trace.finalize();
  return trace;
}

TEST(FleetSpec, ParsesNamesShapesAndFaultLists) {
  const auto specs =
      parseFleetSpec("a0=4x4;a1=4x4:proc:5+link:0-1;8x8:row:2");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "a0");
  EXPECT_EQ(specs[0].rows, 4);
  EXPECT_EQ(specs[0].cols, 4);
  EXPECT_TRUE(specs[0].faults.empty());
  EXPECT_EQ(specs[1].name, "a1");
  ASSERT_EQ(specs[1].faults.size(), 2u);
  EXPECT_EQ(specs[1].faults[0], "proc:5");
  EXPECT_EQ(specs[1].faults[1], "link:0-1");
  // Unnamed arrays are auto-named by position.
  EXPECT_EQ(specs[2].name, "array2");
  EXPECT_EQ(specs[2].rows, 8);
  ASSERT_EQ(specs[2].faults.size(), 1u);
  EXPECT_EQ(specs[2].faults[0], "row:2");
}

TEST(FleetSpec, RejectsMalformedEntries) {
  EXPECT_THROW(parseFleetSpec(""), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("4x4;;4x4"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("4"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("0x4"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("4xx4"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("5000x5000"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("2048x2048"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("1no=4x4"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("=4x4"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("a=4x4;a=4x4"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("4x4:"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("4x4:proc:5++link:0-1"), std::invalid_argument);
  // Fault specs are validated against the declared grid at parse time.
  EXPECT_THROW(parseFleetSpec("4x4:proc:99"), std::invalid_argument);
  EXPECT_THROW(parseFleetSpec("4x4:nonsense"), std::invalid_argument);
}

TEST(FleetSpec, UnnamedCollisionWithExplicitNameIsRejected) {
  // "array0" is the auto-name of position 0.
  EXPECT_THROW(parseFleetSpec("4x4;array0=4x4"), std::invalid_argument);
}

TEST(FleetArrayState, HealthyArrayHasEmptySignature) {
  ArrayState state(ArraySpec{"a", 4, 4, {}});
  EXPECT_TRUE(state.healthy());
  EXPECT_TRUE(state.canonicalFaults().empty());
  EXPECT_EQ(state.faultSignature(), "");
  EXPECT_EQ(state.aliveProcs(), 16);
  EXPECT_EQ(state.deadProcs(), 0);
}

TEST(FleetArrayState, DuplicateSpecsDropFromTheCanonicalList) {
  // The second proc:5 is a no-op (already dead); the canonical health
  // descriptor keeps only effective specs.
  ArrayState state(ArraySpec{"a", 4, 4, {"proc:5", "proc:5", "link:0-1"}});
  EXPECT_FALSE(state.healthy());
  ASSERT_EQ(state.canonicalFaults().size(), 2u);
  EXPECT_EQ(state.canonicalFaults()[0], "proc:5");
  EXPECT_EQ(state.canonicalFaults()[1], "link:0-1");

  // Same effective health -> same signature, so the two arrays share one
  // result-cache partition.
  ArrayState clean(ArraySpec{"b", 4, 4, {"proc:5", "link:0-1"}});
  EXPECT_EQ(state.faultSignature(), clean.faultSignature());
  EXPECT_NE(state.faultSignature(), "");

  ArrayState other(ArraySpec{"c", 4, 4, {"proc:6"}});
  EXPECT_NE(state.faultSignature(), other.faultSignature());
}

TEST(FleetArrayState, EstimateDropsReferencesFromDeadProcessors) {
  // The pipeline drops references issued by dead processors, so the
  // estimator must too — otherwise any trace touching proc 5 would price
  // infinite on this array even though the job is feasible there.
  ArrayState faulted(ArraySpec{"a", 4, 4, {"proc:5"}});
  std::vector<ProcWeight> refs = {{1, 10}, {5, 10}, {6, 10}};
  std::vector<Cost> scratch;
  const Cost est = faulted.estimateCost(refs, scratch);
  EXPECT_LT(est, kInfiniteCost);

  // A healthy array pricing the full string can only be >= the faulted
  // array pricing the filtered one minus the dropped weight; the real
  // invariant worth pinning: both finite, and the all-dead string is free.
  std::vector<ProcWeight> onlyDead = {{5, 10}};
  EXPECT_EQ(faulted.estimateCost(onlyDead, scratch), 0);
}

TEST(FleetArrayState, CapacityHonoursDeadProcsAndFaultLimits) {
  ArrayState healthy(ArraySpec{"a", 4, 4, {}});
  EXPECT_EQ(healthy.capacitySlots(2), 32);
  ArrayState faulted(ArraySpec{"b", 4, 4, {"proc:5", "cap:0=1"}});
  // 14 procs at 2 slots + proc 0 capped at 1.
  EXPECT_EQ(faulted.capacitySlots(2), 29);
}

TEST(FleetRegistry, LookupAndShapeEligibility) {
  ArrayFleet fleet(parseFleetSpec("a=4x4;b=8x8;c=4x4:proc:5"));
  EXPECT_EQ(fleet.size(), 3u);
  EXPECT_EQ(fleet.find("b"), 1);
  EXPECT_EQ(fleet.find("nope"), -1);
  const auto eligible = fleet.eligibleFor(4, 4);
  ASSERT_EQ(eligible.size(), 2u);
  EXPECT_EQ(eligible[0], 0u);
  EXPECT_EQ(eligible[1], 2u);
  EXPECT_TRUE(fleet.eligibleFor(2, 2).empty());

  // No specs: the one any-shape array, eligible for every shape. A 0x0
  // spec among shaped ones would be a second any-shape array: rejected.
  const ArrayFleet anyShape({});
  ASSERT_EQ(anyShape.size(), 1u);
  EXPECT_TRUE(anyShape.at(0).anyShape());
  EXPECT_EQ(anyShape.eligibleFor(2, 2), std::vector<std::size_t>{0});
  EXPECT_EQ(anyShape.eligibleFor(16, 8), std::vector<std::size_t>{0});
  EXPECT_THROW(ArrayFleet({ArraySpec{"a", 4, 4, {}}, ArraySpec{"z", 0, 0, {}}}),
               std::invalid_argument);
}

TEST(FleetRegistry, FullyDeadArrayIsNeverEligible) {
  ArrayFleet fleet(parseFleetSpec("a=2x2:region:0,0,1,1;b=2x2"));
  const auto eligible = fleet.eligibleFor(2, 2);
  ASSERT_EQ(eligible.size(), 1u);
  EXPECT_EQ(eligible[0], 1u);
}

TEST(FleetAggregate, SumsWeightsPerProcessorSorted) {
  ReferenceTrace trace(DataSpace::singleSquare(2));
  trace.add(0, 3, 0, 2);
  trace.add(0, 1, 1, 1);
  trace.add(1, 3, 2, 5);
  trace.add(1, 1, 3, 4);
  trace.finalize();
  const auto refs = aggregateTraceRefs(trace);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].proc, 1);
  EXPECT_EQ(refs[0].weight, 5);
  EXPECT_EQ(refs[1].proc, 3);
  EXPECT_EQ(refs[1].weight, 7);
}

TEST(FleetPolicyNames, RoundTripAndRejectUnknown) {
  for (const FleetPolicy p : {FleetPolicy::kCost, FleetPolicy::kRoundRobin,
                              FleetPolicy::kLeastLoaded}) {
    const auto back = fleetPolicyFromString(toString(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(fleetPolicyFromString("fastest").has_value());
}

TEST(FleetSelector, RoundRobinRotatesOverTheEligibleSet) {
  ArrayFleet fleet(parseFleetSpec("a=4x4;b=4x4;c=4x4"));
  ArraySelector selector(fleet, FleetPolicy::kRoundRobin);
  const std::vector<std::size_t> eligible = {0, 1, 2};
  const std::vector<ArrayLoad> loads(3);
  std::vector<int> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(selector.select({}, 16, -1, eligible, loads, nullptr));
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(FleetSelector, LeastLoadedPicksMinWithIndexTieBreak) {
  ArrayFleet fleet(parseFleetSpec("a=4x4;b=4x4;c=4x4"));
  ArraySelector selector(fleet, FleetPolicy::kLeastLoaded);
  const std::vector<std::size_t> eligible = {0, 1, 2};
  std::vector<ArrayLoad> loads(3);
  loads[0].running = 2;
  loads[1].running = 1;
  loads[2].queued = 1;
  EXPECT_EQ(selector.select({}, 16, -1, eligible, loads, nullptr), 1);
  loads[2].queued = 0;  // ties 1 and 2 at... no: 2 now has 0, strictly least
  EXPECT_EQ(selector.select({}, 16, -1, eligible, loads, nullptr), 2);
  loads[1].running = 0;  // 1 and 2 tie at 0 -> lower index wins
  EXPECT_EQ(selector.select({}, 16, -1, eligible, loads, nullptr), 1);
}

TEST(FleetSelector, CostPrefersTheHealthyArrayAndChargesTheEstimate) {
  // Heavy references around proc 5: the faulted array both drops that
  // demand and routes around the hole, so the healthy array's direct
  // serving is cheaper for traffic it can see.
  ArrayFleet fleet(parseFleetSpec("bad=4x4:proc:5;good=4x4"));
  ArraySelector selector(fleet, FleetPolicy::kCost);
  const std::vector<std::size_t> eligible = {0, 1};
  const std::vector<ArrayLoad> loads(2);
  const auto refs = aggregateTraceRefs(makeTrace(4, 6));
  Cost est = -1;
  const int pick = selector.select(refs, 16, -1, eligible, loads, &est);
  ASSERT_GE(pick, 0);
  EXPECT_GE(est, 0);
  // The pick must be the argmin of est+outstanding over both arrays.
  std::vector<Cost> scratch;
  const Cost est0 = fleet.at(0).estimateCost(refs, scratch);
  const Cost est1 = fleet.at(1).estimateCost(refs, scratch);
  EXPECT_EQ(pick, est1 <= est0 ? 1 : 0);
}

TEST(FleetSelector, CostRespectsOutstandingWorkBacklog) {
  ArrayFleet fleet(parseFleetSpec("a=4x4;b=4x4"));
  ArraySelector selector(fleet, FleetPolicy::kCost);
  const std::vector<std::size_t> eligible = {0, 1};
  const auto refs = aggregateTraceRefs(makeTrace(4, 4));
  std::vector<ArrayLoad> loads(2);
  Cost est = 0;
  // Identical arrays: dead-proc tie-break is a wash, index 0 wins.
  EXPECT_EQ(selector.select(refs, 16, -1, eligible, loads, &est), 0);
  // A huge backlog on 0 flips the choice even though 0 is listed first.
  loads[0].outstandingWork = 1e12;
  EXPECT_EQ(selector.select(refs, 16, -1, eligible, loads, &est), 1);
}

TEST(FleetSelector, CostSkipsArraysWithoutResidualCapacity) {
  // 32 data at 2 slots/proc need all 16 processors: the array with a dead
  // proc (30 slots) cannot host the job, the healthy one (32) just can.
  ArrayFleet fleet(parseFleetSpec("tight=4x4:proc:5;free=4x4"));
  ArraySelector selector(fleet, FleetPolicy::kCost);
  const std::vector<std::size_t> eligible = {0, 1};
  const std::vector<ArrayLoad> loads(2);
  const auto refs = aggregateTraceRefs(makeTrace(4, 4));
  Cost est = 0;
  EXPECT_EQ(selector.select(refs, 32, 2, eligible, loads, &est), 1);
  // Under the sentinel capacity rule (always fits) both stay in play.
  EXPECT_GE(selector.select(refs, 32, -1, eligible, loads, &est), 0);
}

TEST(FleetSelector, CostReturnsNoneWhenNothingFits) {
  ArrayFleet fleet(parseFleetSpec("tight=4x4:proc:5"));
  ArraySelector selector(fleet, FleetPolicy::kCost);
  const std::vector<ArrayLoad> loads(1);
  const auto refs = aggregateTraceRefs(makeTrace(4, 4));
  Cost est = 7;
  EXPECT_EQ(selector.select(refs, 32, 2, {0}, loads, &est), -1);
  EXPECT_EQ(est, 0);
}

TEST(FleetSelector, CostTieBreaksByFewerDeadProcessors) {
  // Two arrays, both pricing the empty reference string at 0: the one
  // with fewer dead processors wins even though it has the higher index.
  ArrayFleet fleet(parseFleetSpec("worse=4x4:proc:5+proc:6;better=4x4:proc:9"));
  ArraySelector selector(fleet, FleetPolicy::kCost);
  const std::vector<ArrayLoad> loads(2);
  Cost est = 0;
  EXPECT_EQ(selector.select({}, 16, -1, {0, 1}, loads, &est), 1);
}

}  // namespace
}  // namespace pimsched::fleet
