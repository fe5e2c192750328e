// Cross-product integration properties: every scheduler on every grid
// shape, window granularity and cost parameterisation must uphold the
// library-wide invariants simultaneously (DESIGN.md §3). These sweeps are
// the safety net for interactions the per-module tests cannot see.

#include <gtest/gtest.h>

#include <tuple>

#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/grouping.hpp"
#include "core/lomcds.hpp"
#include "core/scds.hpp"
#include "exhaustive.hpp"
#include "kernels/benchmarks.hpp"
#include "sim/replay.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

struct Instance {
  Grid grid;
  WindowedRefs refs;
  CostParams params;

  /// A CostModel must reference the Instance's own grid (it stores a
  /// pointer), so it is derived on demand rather than stored.
  [[nodiscard]] CostModel model() const { return CostModel(grid, params); }
};

Instance makeInstance(int rows, int cols, int windows, int seed,
                      CostParams params = {}) {
  Grid grid(rows, cols);
  testutil::Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
  const int steps = windows * 3;
  ReferenceTrace trace =
      testutil::randomTrace(rng, grid, 4, 4, steps, 4 * grid.size());
  WindowedRefs refs(trace, WindowPartition::evenCount(steps, windows), grid);
  return Instance{grid, std::move(refs), params};
}

// ---------------------------------------------------------------------
// Sweep: (rows, cols, windows, seed).
class SchedulerCrossProduct
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SchedulerCrossProduct, AllInvariantsHold) {
  const auto [rows, cols, windows, seed] = GetParam();
  const Instance inst = makeInstance(rows, cols, windows, seed);
  const WindowedRefs& refs = inst.refs;
  const CostModel model = inst.model();

  const DataSchedule scds = scheduleScds(refs, model);
  const DataSchedule lomcds = scheduleLomcds(refs, model);
  const DataSchedule gomcds = scheduleGomcds(refs, model);
  const DataSchedule grouped = scheduleGroupedLomcds(refs, model);

  for (const DataSchedule* s : {&scds, &lomcds, &gomcds, &grouped}) {
    EXPECT_TRUE(s->complete());
  }
  EXPECT_TRUE(scds.isStatic());

  const Cost cScds = evaluateSchedule(scds, refs, model).aggregate.total();
  const Cost cLom = evaluateSchedule(lomcds, refs, model).aggregate.total();
  const Cost cGom = evaluateSchedule(gomcds, refs, model).aggregate.total();
  const Cost cGrp = evaluateSchedule(grouped, refs, model).aggregate.total();

  // Invariant 3 + 6 (uncapacitated): GOMCDS dominates everything.
  EXPECT_LE(cGom, cScds);
  EXPECT_LE(cGom, cLom);
  EXPECT_LE(cGom, cGrp);
  // Grouping never loses to per-window LOMCDS.
  EXPECT_LE(cGrp, cLom);

  // Invariant 10: replay traffic == analytic cost, for each scheme.
  for (const DataSchedule* s : {&scds, &lomcds, &gomcds, &grouped}) {
    const Cost analytic =
        evaluateSchedule(*s, refs, model).aggregate.total();
    EXPECT_EQ(replaySchedule(*s, refs, model).total.totalHopVolume,
              analytic);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, SchedulerCrossProduct,
    ::testing::Values(std::make_tuple(1, 1, 3, 1),   // degenerate
                      std::make_tuple(1, 8, 4, 2),   // 1-D row
                      std::make_tuple(8, 1, 4, 3),   // 1-D column
                      std::make_tuple(2, 2, 6, 4),
                      std::make_tuple(4, 4, 5, 5),
                      std::make_tuple(3, 5, 4, 6),   // rectangular
                      std::make_tuple(5, 3, 7, 7),
                      std::make_tuple(6, 6, 3, 8),
                      std::make_tuple(2, 7, 8, 9),
                      std::make_tuple(7, 2, 2, 10)));

// ---------------------------------------------------------------------
// Capacity sweep: the same orderings that are theorems uncapacitated are
// checked as schedule-validity + S.F.-dominance facts under pressure.
class CapacityCrossProduct
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CapacityCrossProduct, SchedulesStayFeasible) {
  const auto [capacity, seed] = GetParam();
  const Instance inst = makeInstance(3, 3, 4, seed);
  const WindowedRefs& refs = inst.refs;
  const CostModel model = inst.model();
  SchedulerOptions opts;
  opts.capacity = capacity;  // 16 data over 9 procs: >= 2 is feasible

  for (const auto& schedule :
       {scheduleScds(refs, model, opts), scheduleLomcds(refs, model, opts),
        scheduleGomcds(refs, model, opts),
        scheduleGroupedLomcds(refs, model, opts)}) {
    EXPECT_TRUE(schedule.complete());
    EXPECT_TRUE(schedule.respectsCapacity(inst.grid, capacity));
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacityCrossProduct,
                         ::testing::Combine(::testing::Values(2, 3, 4, 16),
                                            ::testing::Values(11, 12, 13)));

// ---------------------------------------------------------------------
// Cost-parameter properties.
TEST(CostParamSweep, HopCostScalesEveryScheduleCostLinearly) {
  const Instance base = makeInstance(4, 4, 4, 21);
  const CostModel unit = base.model();
  const CostModel scaled(base.grid, CostParams{5, 1});
  const DataSchedule a = scheduleGomcds(base.refs, unit);
  const DataSchedule b = scheduleGomcds(base.refs, scaled);
  // Scaling every edge uniformly preserves the argmin...
  const Cost costA =
      evaluateSchedule(a, base.refs, unit).aggregate.total();
  const Cost costB = evaluateSchedule(b, base.refs, scaled).aggregate.total();
  EXPECT_EQ(costB, 5 * costA);
  // ...and the schedule itself.
  for (DataId d = 0; d < base.refs.numData(); ++d) {
    for (WindowId w = 0; w < base.refs.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w));
    }
  }
}

TEST(CostParamSweep, GomcdsMovementDecreasesAsMoveVolumeGrows) {
  const Instance base = makeInstance(4, 4, 6, 22);
  Cost prevMoves = kInfiniteCost;
  for (const Cost volume : {Cost{0}, Cost{1}, Cost{4}, Cost{16}, Cost{64}}) {
    const CostModel model(base.grid, CostParams{1, volume});
    const DataSchedule s = scheduleGomcds(base.refs, model);
    // Count migrations (hops moved), independent of the charged volume.
    Cost hops = 0;
    for (DataId d = 0; d < base.refs.numData(); ++d) {
      for (WindowId w = 1; w < base.refs.numWindows(); ++w) {
        hops += base.grid.manhattan(s.center(d, w - 1), s.center(d, w));
      }
    }
    EXPECT_LE(hops, prevMoves)
        << "raising moveVolume must not increase migration";
    prevMoves = hops;
  }
}

TEST(CostParamSweep, InfiniteMoveVolumeMakesGomcdsStatic) {
  const Instance base = makeInstance(4, 4, 5, 23);
  const CostModel model(base.grid, CostParams{1, 1'000'000});
  const DataSchedule s = scheduleGomcds(base.refs, model);
  EXPECT_TRUE(s.isStatic());
  // And then it must equal SCDS's cost (both are optimal static).
  const CostModel unit(base.grid);
  const Cost gomcdsServe =
      evaluateSchedule(s, base.refs, unit).aggregate.serve;
  const Cost scdsServe =
      evaluateSchedule(scheduleScds(base.refs, unit), base.refs, unit)
          .aggregate.serve;
  EXPECT_EQ(gomcdsServe, scdsServe);
}

// ---------------------------------------------------------------------
// The paper benchmarks across partitions: orderings hold everywhere.
class PartitionBenchmarkSweep
    : public ::testing::TestWithParam<std::tuple<PaperBenchmark, PartitionKind>> {};

TEST_P(PartitionBenchmarkSweep, GomcdsDominates) {
  const auto [bench, part] = GetParam();
  const Grid grid(4, 4);
  const ReferenceTrace trace = makePaperBenchmark(bench, grid, 8, part);
  const WindowedRefs refs(
      trace, WindowPartition::evenCount(trace.numSteps(), 6), grid);
  const CostModel model(grid);
  const Cost go =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model)
          .aggregate.total();
  const Cost sc =
      evaluateSchedule(scheduleScds(refs, model), refs, model)
          .aggregate.total();
  const Cost lo =
      evaluateSchedule(scheduleLomcds(refs, model), refs, model)
          .aggregate.total();
  EXPECT_LE(go, sc);
  EXPECT_LE(go, lo);
}

INSTANTIATE_TEST_SUITE_P(
    All, PartitionBenchmarkSweep,
    ::testing::Combine(::testing::ValuesIn(allPaperBenchmarks()),
                       ::testing::Values(PartitionKind::kRowBlock,
                                         PartitionKind::kColBlock,
                                         PartitionKind::kBlock2D,
                                         PartitionKind::kCyclic2D)),
    [](const auto& info) {
      std::string n = toString(std::get<0>(info.param)) + "_" +
                      toString(std::get<1>(info.param));
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------
// GOMCDS == exhaustive on every tiny grid shape (not just square).
class TinyExhaustiveSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TinyExhaustiveSweep, GomcdsIsOptimal) {
  const auto [rows, cols, seed] = GetParam();
  const Grid grid(rows, cols);
  testutil::Rng rng(static_cast<std::uint64_t>(seed) + 100);
  const ReferenceTrace trace =
      testutil::randomTrace(rng, grid, 2, 2, 8, 2 * grid.size());
  const WindowedRefs refs(trace, WindowPartition::fixedSize(8, 2), grid);
  const CostModel model(grid);
  EXPECT_EQ(
      evaluateSchedule(scheduleGomcds(refs, model), refs, model)
          .aggregate.total(),
      evaluateSchedule(scheduleExhaustive(refs, model), refs, model)
          .aggregate.total());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TinyExhaustiveSweep,
    ::testing::Values(std::make_tuple(1, 4, 1), std::make_tuple(4, 1, 2),
                      std::make_tuple(2, 2, 3), std::make_tuple(2, 3, 4),
                      std::make_tuple(3, 2, 5), std::make_tuple(1, 6, 6)));

}  // namespace
}  // namespace pimsched
