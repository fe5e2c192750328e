#include "ablation/repair.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/verify.hpp"
#include "fault/fault_map.hpp"
#include "sim/replay.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

using testutil::Rng;

ReferenceTrace makeTrace(std::uint64_t seed, const Grid& grid) {
  Rng rng(seed);
  return testutil::randomTrace(rng, grid, 5, 5, /*numSteps=*/12,
                               /*refsPerStep=*/8);
}

TEST(Repair, FaultObliviousModelReturnsInputUnchanged) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(3, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  const Experiment exp(trace, grid, cfg);
  const DataSchedule schedule = exp.schedule(Method::kGomcds);
  const RepairResult rep =
      repairSchedule(schedule, exp.refs(), exp.costModel());
  EXPECT_EQ(rep.cellsRepaired, 0);
  EXPECT_EQ(rep.dataRepaired, 0);
  EXPECT_EQ(rep.migrationCost, 0);
  for (DataId d = 0; d < schedule.numData(); ++d) {
    for (WindowId w = 0; w < schedule.numWindows(); ++w) {
      ASSERT_EQ(rep.schedule.center(d, w), schedule.center(d, w));
    }
  }
}

TEST(Repair, MovesBrokenDataOffDeadProcessor) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(7, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  const Experiment healthy(trace, grid, cfg);
  const DataSchedule stale = healthy.schedule(Method::kGomcds);

  FaultMap faults(grid);
  faults.killProc(5);
  const Experiment faulted(trace, grid, faults, cfg);
  RepairOptions opts;
  opts.capacity = faulted.capacity();
  const RepairResult rep =
      repairSchedule(stale, faulted.refs(), faulted.costModel(), opts);

  // faultWindow = 0: the whole schedule is repaired, so the fault verifier
  // must pass on every window.
  const VerifyReport report =
      verifyScheduleFaults(rep.schedule, faulted.refs(), faulted.costModel());
  EXPECT_TRUE(report.ok())
      << report.issues.size() << " issues, first: "
      << (report.issues.empty() ? "" : report.issues.front().detail);
  for (DataId d = 0; d < rep.schedule.numData(); ++d) {
    for (WindowId w = 0; w < rep.schedule.numWindows(); ++w) {
      EXPECT_NE(rep.schedule.center(d, w), 5);
    }
  }
  EXPECT_LT(rep.suffixCost, kInfiniteCost);
}

TEST(Repair, PrefixBeforeFaultWindowIsUntouched) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(13, grid);
  PipelineConfig cfg;
  cfg.numWindows = 6;
  const Experiment healthy(trace, grid, cfg);
  const DataSchedule stale = healthy.schedule(Method::kLomcds);

  FaultMap faults(grid);
  faults.killProc(9);
  faults.killLink(2, 3);
  const Experiment faulted(trace, grid, faults, cfg);
  RepairOptions opts;
  opts.faultWindow = 3;
  opts.capacity = faulted.capacity();
  const RepairResult rep =
      repairSchedule(stale, faulted.refs(), faulted.costModel(), opts);

  for (DataId d = 0; d < stale.numData(); ++d) {
    for (WindowId w = 0; w < 3; ++w) {
      ASSERT_EQ(rep.schedule.center(d, w), stale.center(d, w))
          << "prefix cell touched: datum " << d << " window " << w;
    }
    for (WindowId w = 3; w < stale.numWindows(); ++w) {
      EXPECT_NE(rep.schedule.center(d, w), 9);
    }
  }
}

TEST(Repair, UnaffectedDataKeepTheirPlacements) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(17, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  cfg.capacity = PipelineConfig::kUnlimited;
  const Experiment healthy(trace, grid, cfg);
  const DataSchedule stale = healthy.schedule(Method::kGomcds);

  FaultMap faults(grid);
  faults.killProc(0);
  const Experiment faulted(trace, grid, faults, cfg);
  const RepairResult rep =
      repairSchedule(stale, faulted.refs(), faulted.costModel());

  // Unlimited capacity: only placements actually broken by the dead
  // processor may change.
  for (DataId d = 0; d < stale.numData(); ++d) {
    for (WindowId w = 0; w < stale.numWindows(); ++w) {
      if (rep.schedule.center(d, w) == stale.center(d, w)) continue;
      // This cell changed: its stale placement (or the migration into it)
      // must have been broken.
      bool broken = stale.center(d, w) == 0;
      if (w > 0 && rep.schedule.center(d, w - 1) != stale.center(d, w - 1)) {
        broken = true;  // upstream repair may cascade into this window
      }
      if (w > 0 && stale.center(d, w - 1) == 0) broken = true;
      EXPECT_TRUE(broken) << "datum " << d << " window " << w;
    }
  }
  EXPECT_EQ(rep.evictions, 0);
}

TEST(Repair, SuffixCostMatchesStandaloneComputation) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(29, grid);
  PipelineConfig cfg;
  cfg.numWindows = 5;
  const Experiment healthy(trace, grid, cfg);
  const DataSchedule stale = healthy.schedule(Method::kGomcds);

  FaultMap faults(grid);
  faults.injectUniformProcs(2, 4);
  const Experiment faulted(trace, grid, faults, cfg);
  RepairOptions opts;
  opts.faultWindow = 2;
  opts.capacity = faulted.capacity();
  const RepairResult rep =
      repairSchedule(stale, faulted.refs(), faulted.costModel(), opts);
  EXPECT_EQ(rep.suffixCost,
            repairSuffixCost(rep.schedule, faulted.refs(),
                             faulted.costModel(), 2));
}

TEST(Repair, ReducedCapacityForcesEvictions) {
  const Grid grid(2, 2);
  // 9 data spread round-robin over the 4 processors by reference.
  ReferenceTrace trace(DataSpace::singleSquare(3, "A"));
  for (StepId s = 0; s < 4; ++s) {
    for (DataId d = 0; d < 9; ++d) {
      trace.add(s, static_cast<ProcId>(d % 4), d, 2);
    }
  }
  trace.finalize();
  PipelineConfig cfg;
  cfg.numWindows = 1;
  cfg.capacity = 3;  // 4 procs x 3 slots = 12 >= 9: feasible when healthy
  const Experiment healthy(trace, grid, cfg);
  const DataSchedule stale = healthy.schedule(Method::kScds);

  FaultMap faults(grid);
  faults.limitCapacity(0, 1);  // proc 0 loses slots but stays alive
  const Experiment faulted(trace, grid, faults, cfg);
  RepairOptions opts;
  opts.capacity = 3;
  const RepairResult rep =
      repairSchedule(stale, faulted.refs(), faulted.costModel(), opts);
  std::int64_t onProc0 = 0;
  for (DataId d = 0; d < 9; ++d) {
    if (rep.schedule.center(d, 0) == 0) ++onProc0;
  }
  // The healthy schedule put data 0, 4, 8 on their referencing proc 0; the
  // reduced limit keeps the first and evicts the other two.
  EXPECT_EQ(onProc0, 1);
  EXPECT_EQ(rep.evictions, 2);
  EXPECT_EQ(rep.cellsRepaired, 2);
}

TEST(Repair, NoFeasibleCenterThrowsUnreachable) {
  const Grid grid(4, 4);
  ReferenceTrace trace(DataSpace::singleSquare(2, "A"));
  trace.add(0, grid.id(0, 0), 0, 3);
  trace.add(0, grid.id(3, 3), 0, 3);
  trace.finalize();
  PipelineConfig cfg;
  cfg.numWindows = 1;
  cfg.capacity = PipelineConfig::kUnlimited;
  const Experiment healthy(trace, grid, cfg);
  const DataSchedule stale = healthy.schedule(Method::kScds);

  FaultMap faults(grid);
  faults.killRow(1);  // row 0 cut off from rows 2-3
  const Experiment faulted(trace, grid, faults, cfg);
  EXPECT_THROW(
      (void)repairSchedule(stale, faulted.refs(), faulted.costModel()),
      UnreachableError);
}

TEST(Repair, RecoveredMigrationsAreChargedZero) {
  const Grid grid(1, 4);
  // Datum 0 lives on proc 0 in window 0 and is referenced by proc 3 in
  // window 1; killing proc 0 after window 0 forces a migration whose
  // source is dead -> out-of-band recovery, charged 0.
  ReferenceTrace trace(DataSpace::singleSquare(1, "A"));
  trace.add(0, 0, 0, 5);
  trace.add(1, 3, 0, 5);
  trace.finalize();
  PipelineConfig cfg;
  cfg.numWindows = 2;
  cfg.capacity = PipelineConfig::kUnlimited;
  const Experiment healthy(trace, grid, cfg);
  const DataSchedule stale = healthy.schedule(Method::kLomcds);
  ASSERT_EQ(stale.center(0, 0), 0);  // optimal center = sole referencing proc
  ASSERT_EQ(stale.center(0, 1), 3);

  FaultMap faults(grid);
  faults.killProc(0);
  const Experiment faulted(trace, grid, faults, cfg);
  RepairOptions opts;
  opts.faultWindow = 1;  // window 0 already executed
  const RepairResult rep =
      repairSchedule(stale, faulted.refs(), faulted.costModel(), opts);
  // The suffix placement (proc 3) survives, but its migration source is
  // dead: suffix cost charges serve only, and the recovery is counted.
  std::int64_t recovered = 0;
  const Cost suffix = repairSuffixCost(rep.schedule, faulted.refs(),
                                       faulted.costModel(), 1, &recovered);
  EXPECT_EQ(suffix, 0);  // datum sits on its only referencing proc
  EXPECT_EQ(recovered, 1);

  // Replay agrees: the migration message is dropped, not routed.
  ReplayOptions ropts;
  const ReplayReport replay = replaySchedule(
      rep.schedule, faulted.refs(), faulted.costModel(), ropts);
  EXPECT_EQ(replay.total.totalHopVolume, 0);
}

TEST(Repair, InvalidArgumentsAreRejected) {
  const Grid grid(2, 2);
  const ReferenceTrace trace = makeTrace(1, grid);
  PipelineConfig cfg;
  cfg.numWindows = 2;
  const Experiment exp(trace, grid, cfg);
  const DataSchedule schedule = exp.schedule(Method::kScds);
  RepairOptions opts;
  opts.faultWindow = 99;
  EXPECT_THROW(
      (void)repairSchedule(schedule, exp.refs(), exp.costModel(), opts),
      std::invalid_argument);
  const DataSchedule wrongShape(schedule.numData() + 1, 2);
  EXPECT_THROW(
      (void)repairSchedule(wrongShape, exp.refs(), exp.costModel()),
      std::invalid_argument);
}

}  // namespace
}  // namespace pimsched
