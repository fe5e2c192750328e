#include "ablation/annealing.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/scds.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

AnnealParams quickParams() {
  AnnealParams p;
  p.iterations = 20'000;
  return p;
}

TEST(Annealing, NeverWorseThanItsInitialSchedule) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(131);
  for (int trial = 0; trial < 4; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 25);
    const WindowedRefs refs = refsFromTrace(t, g, 4);
    const DataSchedule init = scheduleScds(refs, model);
    const Cost before =
        evaluateSchedule(init, refs, model).aggregate.total();
    const DataSchedule annealed =
        scheduleAnnealed(refs, model, init, {}, quickParams());
    const Cost after =
        evaluateSchedule(annealed, refs, model).aggregate.total();
    EXPECT_LE(after, before);
  }
}

TEST(Annealing, CannotBeatGomcdsUncapacitated) {
  // GOMCDS is per-datum optimal without capacity, so annealing from it
  // must return the same cost.
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(132);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 9, 15);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  const DataSchedule init = scheduleGomcds(refs, model);
  const Cost optimal = evaluateSchedule(init, refs, model).aggregate.total();
  const DataSchedule annealed =
      scheduleAnnealed(refs, model, init, {}, quickParams());
  EXPECT_EQ(evaluateSchedule(annealed, refs, model).aggregate.total(),
            optimal);
}

TEST(Annealing, RejectsNonPositiveStepsPerCooling) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(135);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 4, 8);
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  const DataSchedule init = scheduleScds(refs, model);
  for (const int steps : {0, -1, -64}) {
    AnnealParams p = quickParams();
    p.stepsPerCooling = steps;
    EXPECT_THROW((void)scheduleAnnealed(refs, model, init, {}, p),
                 std::invalid_argument)
        << "stepsPerCooling=" << steps;
  }
}

TEST(Annealing, DeferredSnapshotReturnsTheBestVisitedCost) {
  // The journal-replay reconstruction must return a schedule whose cost
  // equals the best incremental cost the loop tracked — i.e. evaluating
  // the returned schedule from scratch reproduces a cost no worse than
  // both the initial and the final accepted state.
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(136);
  for (int trial = 0; trial < 3; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 10, 20);
    const WindowedRefs refs = refsFromTrace(t, g, 5);
    const DataSchedule init = scheduleScds(refs, model);
    AnnealParams p = quickParams();
    p.initialTemperature = 64.0;  // hot: accepts uphill, so best != last
    const DataSchedule annealed =
        scheduleAnnealed(refs, model, init, {}, p);
    EXPECT_TRUE(annealed.complete());
    EXPECT_LE(evaluateSchedule(annealed, refs, model).aggregate.total(),
              evaluateSchedule(init, refs, model).aggregate.total());
  }
}

TEST(Annealing, RespectsCapacityThroughout) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(133);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 8, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  SchedulerOptions opts;
  opts.capacity = 3;
  const DataSchedule init = scheduleGomcds(refs, model, opts);
  const DataSchedule annealed =
      scheduleAnnealed(refs, model, init, opts, quickParams());
  EXPECT_TRUE(annealed.respectsCapacity(g, 3));
}

TEST(Annealing, DeterministicForFixedSeed) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(134);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 9, 15);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  const DataSchedule init = scheduleScds(refs, model);
  const DataSchedule a =
      scheduleAnnealed(refs, model, init, {}, quickParams());
  const DataSchedule b =
      scheduleAnnealed(refs, model, init, {}, quickParams());
  for (DataId d = 0; d < refs.numData(); ++d) {
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w));
    }
  }
}

TEST(Annealing, RejectsBadInitialSchedules) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(135);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 4, 8);
  const WindowedRefs refs = refsFromTrace(t, g, 2);

  const DataSchedule incomplete(refs.numData(), refs.numWindows());
  EXPECT_THROW(
      (void)scheduleAnnealed(refs, model, incomplete, {}, quickParams()),
      std::invalid_argument);

  DataSchedule overfull(refs.numData(), refs.numWindows());
  for (DataId d = 0; d < refs.numData(); ++d) overfull.setStatic(d, 0);
  SchedulerOptions opts;
  opts.capacity = 1;
  EXPECT_THROW(
      (void)scheduleAnnealed(refs, model, overfull, opts, quickParams()),
      std::invalid_argument);
}

TEST(Annealing, ImprovesABadStartSubstantially) {
  // Start from everything parked on processor 0 and let annealing spread
  // the data out; it must recover most of the gap to GOMCDS.
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(136);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 30);
  const WindowedRefs refs = refsFromTrace(t, g, 4);

  DataSchedule bad(refs.numData(), refs.numWindows());
  for (DataId d = 0; d < refs.numData(); ++d) bad.setStatic(d, 0);
  const Cost badCost = evaluateSchedule(bad, refs, model).aggregate.total();
  const Cost optimal =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model)
          .aggregate.total();

  AnnealParams params;
  params.iterations = 150'000;
  const DataSchedule annealed =
      scheduleAnnealed(refs, model, bad, {}, params);
  const Cost after =
      evaluateSchedule(annealed, refs, model).aggregate.total();
  EXPECT_GE(after, optimal);
  // Recovers at least 75% of the gap.
  EXPECT_LE(after - optimal, (badCost - optimal) / 4);
}

}  // namespace
}  // namespace pimsched
