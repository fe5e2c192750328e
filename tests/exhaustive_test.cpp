#include "exhaustive.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/verify.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

TEST(Exhaustive, SolvesTrivialInstanceExactly) {
  const Grid g(1, 3);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 1);
  t.add(1, 2, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(2), g);
  const DataSchedule s = scheduleExhaustive(refs, model);
  const Cost total = evaluateSchedule(s, refs, model).aggregate.total();
  // Options: stay at 0 (0+2), stay at 2 (2+0), stay at 1 (1+1), move
  // 0->2 (0+0+move 2). All cost 2.
  EXPECT_EQ(total, 2);
}

TEST(Exhaustive, BeatsOrMatchesAnyFixedSchedule) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(101);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 6, 8);
  const WindowedRefs refs(
      t, WindowPartition::evenCount(t.numSteps(), 3), g);
  const DataSchedule best = scheduleExhaustive(refs, model);
  const EvalResult bestEval = evaluateSchedule(best, refs, model);
  // Compare against a handful of arbitrary schedules.
  for (int trial = 0; trial < 20; ++trial) {
    DataSchedule other(refs.numData(), refs.numWindows());
    for (DataId d = 0; d < refs.numData(); ++d) {
      for (WindowId w = 0; w < refs.numWindows(); ++w) {
        other.setCenter(
            d, w,
            static_cast<ProcId>(rng.below(
                static_cast<std::uint64_t>(g.size()))));
      }
    }
    const EvalResult otherEval = evaluateSchedule(other, refs, model);
    EXPECT_LE(bestEval.aggregate.total(), otherEval.aggregate.total());
  }
}

TEST(Exhaustive, RefusesHugeInstances) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(102);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 16, 8);
  const WindowedRefs refs(t, WindowPartition::perStep(16), g);
  // 16^16 sequences per datum: must refuse.
  EXPECT_THROW((void)scheduleExhaustive(refs, model),
               std::invalid_argument);
}

TEST(Exhaustive, NeverPlacesDataOnDeadProcessors) {
  // 1x3 with processor 0 dead, one datum read by processor 2 in six
  // windows. Every sequence through processor 0 costs kInfiniteCost; a
  // plain sum of four such terms overflows to a negative total, which used
  // to win the enumeration with centers 0 0 1 1 1 1.
  const Grid g(1, 3);
  FaultMap faults(g);
  faults.killProc(0);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  ReferenceTrace t(DataSpace::singleSquare(1));
  for (StepId s = 0; s < 6; ++s) t.add(s, 2, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(6), g);
  const DataSchedule s = scheduleExhaustive(refs, model);
  EXPECT_TRUE(verifyScheduleFaults(s, refs, model).ok());
  for (WindowId w = 0; w < 6; ++w) EXPECT_EQ(s.center(0, w), 2) << w;
  EXPECT_EQ(evaluateSchedule(s, refs, model).aggregate.total(), 0);
}

TEST(Exhaustive, ThrowsWhenNoCenterSequenceIsFinite) {
  // Processor 1 dead splits 1x3 in two; a window read from both sides has
  // no finite center at all.
  const Grid g(1, 3);
  FaultMap faults(g);
  faults.killProc(1);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 1);
  t.add(0, 2, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(1), g);
  EXPECT_THROW((void)scheduleExhaustive(refs, model), UnreachableError);
}

TEST(Exhaustive, GomcdsMatchesOnTinyFaultedMeshes) {
  // The optimality oracle on faulted meshes: with unlimited capacity the
  // GOMCDS DP over fault-aware distances is exact, so its total equals
  // the enumeration's on every connected faulted instance.
  struct Case {
    int rows, cols;
    std::vector<ProcId> dead;
    std::vector<std::pair<ProcId, ProcId>> deadLinks;
  };
  const std::vector<Case> cases = {
      {2, 3, {4}, {}},
      {3, 3, {0}, {{4, 5}}},
      {3, 3, {4}, {{1, 2}, {6, 3}}},
      {2, 3, {}, {{1, 4}, {5, 2}}},
      {1, 5, {4}, {}},
  };
  std::uint64_t seed = 1800;
  for (const Case& c : cases) {
    const Grid g(c.rows, c.cols);
    FaultMap faults(g);
    for (const ProcId p : c.dead) faults.killProc(p);
    for (const auto& [from, to] : c.deadLinks) faults.killLink(from, to);
    const DistanceMap distances(g, faults);
    ASSERT_FALSE(distances.partitioned());
    const CostModel model(g, distances);
    for (int trial = 0; trial < 3; ++trial) {
      testutil::Rng rng(++seed);
      const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 8, 5);
      const WindowedRefs refs =
          WindowedRefs(t, WindowPartition::fixedSize(8, 2), g)
              .withProcsMasked(faults.deadProcMask());
      const DataSchedule exhaustive = scheduleExhaustive(refs, model);
      const DataSchedule gomcds = scheduleGomcds(refs, model);
      EXPECT_TRUE(verifyScheduleFaults(exhaustive, refs, model).ok());
      EXPECT_EQ(evaluateSchedule(gomcds, refs, model).aggregate.total(),
                evaluateSchedule(exhaustive, refs, model).aggregate.total())
          << c.rows << "x" << c.cols << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace pimsched
