#include "core/online.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/lomcds.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

TEST(Online, FullLookaheadEqualsGomcds) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(151);
  for (int trial = 0; trial < 6; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 20);
    const WindowedRefs refs = refsFromTrace(t, g, 6);
    OnlineOptions opts;
    opts.lookahead = refs.numWindows();  // beyond W-1 is clamped by horizon
    const Cost online =
        evaluateSchedule(scheduleOnline(refs, model, opts), refs, model)
            .aggregate.total();
    const Cost gomcds =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model)
            .aggregate.total();
    EXPECT_EQ(online, gomcds);
  }
}

TEST(Online, NeverBeatsGomcds) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(152);
  for (int trial = 0; trial < 4; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 20);
    const WindowedRefs refs = refsFromTrace(t, g, 6);
    const Cost gomcds =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model)
            .aggregate.total();
    for (const int lookahead : {0, 1, 2, 4}) {
      OnlineOptions opts;
      opts.lookahead = lookahead;
      const Cost online =
          evaluateSchedule(scheduleOnline(refs, model, opts), refs, model)
              .aggregate.total();
      EXPECT_GE(online, gomcds) << "lookahead " << lookahead;
    }
  }
}

TEST(Online, ZeroLookaheadIsMovementAwareGreedy) {
  // Two equal-weight pulls in consecutive windows: the greedy must weigh
  // movement against serving (unlike LOMCDS).
  const Grid g(1, 8);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 2);
  t.add(1, 1, 0, 1);  // 1 hop away, weight 1: moving (1) == serving (1)
  t.finalize();
  const WindowedRefs refs =
      WindowedRefs(t, WindowPartition::perStep(2), g);
  OnlineOptions opts;
  opts.lookahead = 0;
  const DataSchedule s = scheduleOnline(refs, model, opts);
  EXPECT_EQ(s.center(0, 0), 0);
  // Tie between staying (serve 1) and moving (move 1 + serve 0): the DP's
  // smaller-id tie-break keeps it at processor 0.
  EXPECT_EQ(s.center(0, 1), 0);
}

TEST(Online, LookaheadAvoidsGreedyTrap) {
  // Window 0 pulls weakly near, window 1 pulls hard toward the far end,
  // and the datum is bulky (moveVolume 2). A 0-lookahead greedy parks at
  // window 0's optimum and pays the expensive migration; lookahead 1
  // starts where the future needs it and only eats window 0's small
  // remote-serving cost.
  const Grid g(1, 8);
  const CostModel model(g, CostParams{1, 2});
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 1);
  t.add(1, 7, 0, 8);
  t.finalize();
  const WindowedRefs refs =
      WindowedRefs(t, WindowPartition::perStep(2), g);

  OnlineOptions greedy;
  greedy.lookahead = 0;
  OnlineOptions informed;
  informed.lookahead = 1;
  const Cost g0 =
      evaluateSchedule(scheduleOnline(refs, model, greedy), refs, model)
          .aggregate.total();
  const Cost g1 =
      evaluateSchedule(scheduleOnline(refs, model, informed), refs, model)
          .aggregate.total();
  EXPECT_LT(g1, g0);
}

TEST(Online, MovementAwareGreedyBeatsLomcdsOnThrashingTrace) {
  // A reference pattern bouncing between two corners: LOMCDS chases it
  // and pays full movement; the movement-aware greedy stays put once the
  // move costs more than remote serving.
  const Grid g(4, 4);
  CostParams params;
  params.moveVolume = 8;
  const CostModel model(g, params);
  ReferenceTrace t(DataSpace::singleSquare(1));
  for (StepId s = 0; s < 8; ++s) {
    t.add(s, (s % 2 == 0) ? g.id(0, 0) : g.id(3, 3), 0, 1);
  }
  t.finalize();
  const WindowedRefs refs =
      WindowedRefs(t, WindowPartition::perStep(8), g);
  OnlineOptions opts;
  opts.lookahead = 0;
  const Cost online =
      evaluateSchedule(scheduleOnline(refs, model, opts), refs, model)
          .aggregate.total();
  const Cost lomcds =
      evaluateSchedule(scheduleLomcds(refs, model), refs, model)
          .aggregate.total();
  EXPECT_LT(online, lomcds);
}

TEST(Online, RespectsCapacity) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(153);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 8, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  OnlineOptions opts;
  opts.lookahead = 2;
  opts.capacity = 3;
  const DataSchedule s = scheduleOnline(refs, model, opts);
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(s.respectsCapacity(g, 3));
}

TEST(Online, RejectsNegativeLookahead) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(154);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 4, 8);
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  OnlineOptions opts;
  opts.lookahead = -1;
  EXPECT_THROW((void)scheduleOnline(refs, model, opts),
               std::invalid_argument);
}

TEST(Online, HonoursZeroSlotFaultCapacity) {
  // 1x3 with processor 1 limited to zero slots: a datum read only by
  // processor 1 must live elsewhere, where GOMCDS and LOMCDS put it.
  const Grid g(1, 3);
  FaultMap faults(g);
  faults.limitCapacity(1, 0);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  ReferenceTrace t(DataSpace::singleSquare(1));
  for (StepId s = 0; s < 4; ++s) t.add(s, 1, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(4), g);
  const DataSchedule gomcds = scheduleGomcds(refs, model);
  const DataSchedule lomcds = scheduleLomcds(refs, model);
  for (const int lookahead : {0, 1, 3}) {
    OnlineOptions opts;
    opts.lookahead = lookahead;
    const DataSchedule online = scheduleOnline(refs, model, opts);
    for (WindowId w = 0; w < 4; ++w) {
      EXPECT_EQ(online.center(0, w), 0) << "lookahead " << lookahead;
      EXPECT_EQ(gomcds.center(0, w), 0);
      EXPECT_EQ(lomcds.center(0, w), 0);
    }
  }
}

TEST(Online, FullLookaheadEqualsGomcdsOnFaultedMesh) {
  // In-horizon movement must be priced by fault-aware hop distance, as
  // GOMCDS prices it; Manhattan pricing makes full lookahead lose.
  const Grid g(4, 4);
  FaultMap faults(g);
  faults.killProc(5);
  faults.killProc(10);
  faults.killLink(1, 2);
  faults.killLink(13, 14);
  faults.killLink(7, 11);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  testutil::Rng rng(1803);
  for (int trial = 0; trial < 8; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 20);
    const WindowedRefs refs =
        refsFromTrace(t, g, 6).withProcsMasked(faults.deadProcMask());
    OnlineOptions opts;
    opts.lookahead = refs.numWindows();
    const Cost online =
        evaluateSchedule(scheduleOnline(refs, model, opts), refs, model)
            .aggregate.total();
    const Cost gomcds =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model)
            .aggregate.total();
    EXPECT_EQ(online, gomcds) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pimsched
