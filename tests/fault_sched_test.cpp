// End-to-end fault-aware scheduling: the Experiment fault constructor
// threaded through SCDS / LOMCDS / GOMCDS, the bit-identity guarantee for
// empty fault maps, the typed failure taxonomy, and the replay invariant
// over faulted topologies.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/gomcds.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/verify.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "gomcds_reference.hpp"
#include "sim/replay.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

using testutil::Rng;

ReferenceTrace makeTrace(std::uint64_t seed, const Grid& grid) {
  Rng rng(seed);
  return testutil::randomTrace(rng, grid, 6, 6, /*numSteps=*/12,
                               /*refsPerStep=*/10);
}

const std::vector<Method>& faultAwareMethods() {
  static const std::vector<Method> methods = {Method::kScds, Method::kLomcds,
                                              Method::kGomcds};
  return methods;
}

TEST(FaultSched, EmptyFaultMapIsBitIdentical) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(11, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  const Experiment plain(trace, grid, cfg);
  const FaultMap empty(grid);
  const Experiment faulted(trace, grid, empty, cfg);

  EXPECT_EQ(plain.capacity(), faulted.capacity());
  for (const Method m : faultAwareMethods()) {
    const DataSchedule a = plain.schedule(m);
    const DataSchedule b = faulted.schedule(m);
    for (DataId d = 0; d < a.numData(); ++d) {
      for (WindowId w = 0; w < a.numWindows(); ++w) {
        ASSERT_EQ(a.center(d, w), b.center(d, w))
            << toString(m) << " datum " << d << " window " << w;
      }
    }
    EXPECT_EQ(plain.evaluate(m).aggregate.total(),
              faulted.evaluate(m).aggregate.total());
  }

  // An empty map has no fault, so both experiments above run the healthy
  // path. Pin the identity that makes that safe at the model level: the
  // schedulers under the fault-aware metric of an empty map (mesh sweeps,
  // BFS distances) match the Manhattan model (chamfer) cell for cell.
  const DistanceMap distances(grid, empty);
  const CostModel manhattan(grid, cfg.costParams);
  const CostModel meshAware(grid, distances, cfg.costParams);
  const SchedulerOptions opts{plain.capacity(), cfg.order};
  for (const Method m : {Method::kScds, Method::kLomcds, Method::kGomcds}) {
    const DataSchedule a = scheduleMethod(m, plain.refs(), manhattan,
                                          trace.dataSpace(), opts);
    const DataSchedule b = scheduleMethod(m, plain.refs(), meshAware,
                                          trace.dataSpace(), opts);
    for (DataId d = 0; d < a.numData(); ++d) {
      for (WindowId w = 0; w < a.numWindows(); ++w) {
        ASSERT_EQ(a.center(d, w), b.center(d, w))
            << toString(m) << " datum " << d << " window " << w;
      }
    }
    EXPECT_EQ(evaluateSchedule(a, plain.refs(), manhattan).aggregate.total(),
              evaluateSchedule(b, plain.refs(), meshAware).aggregate.total())
        << toString(m);
  }
}

TEST(FaultSched, DeadProcessorsAreNeverCenters) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(23, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap faults(grid);
  faults.killProc(5);
  faults.killProc(10);
  faults.killLink(0, 1);
  const Experiment exp(trace, grid, faults, cfg);

  for (const Method m : faultAwareMethods()) {
    const DataSchedule schedule = exp.schedule(m);
    for (DataId d = 0; d < schedule.numData(); ++d) {
      for (WindowId w = 0; w < schedule.numWindows(); ++w) {
        EXPECT_NE(schedule.center(d, w), 5) << toString(m);
        EXPECT_NE(schedule.center(d, w), 10) << toString(m);
      }
    }
    const VerifyReport report =
        verifyScheduleFaults(schedule, exp.refs(), exp.costModel());
    EXPECT_TRUE(report.ok())
        << toString(m) << ": " << report.issues.size() << " issues, first: "
        << (report.issues.empty() ? "" : report.issues.front().detail);
  }
}

TEST(FaultSched, MaskedRefsDropDeadProcessors) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(31, grid);
  PipelineConfig cfg;
  cfg.numWindows = 3;
  FaultMap faults(grid);
  faults.killProc(7);
  const Experiment exp(trace, grid, faults, cfg);
  for (DataId d = 0; d < exp.refs().numData(); ++d) {
    for (WindowId w = 0; w < exp.refs().numWindows(); ++w) {
      for (const ProcWeight& pw : exp.refs().refs(d, w)) {
        EXPECT_NE(pw.proc, 7);
      }
    }
  }
}

TEST(FaultSched, PaperCapacityCountsOnlyAliveProcessors) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(47, grid);  // 36 data
  PipelineConfig cfg;
  cfg.numWindows = 2;
  FaultMap faults(grid);
  faults.killRegion(0, 0, 1, 2);  // 6 dead -> 10 alive
  const Experiment exp(trace, grid, faults, cfg);
  const std::int64_t numData = trace.dataSpace().numData();
  const std::int64_t alive = 10;
  EXPECT_EQ(exp.capacity(), 2 * ((numData + alive - 1) / alive));
}

TEST(FaultSched, AllProcessorsDeadThrowsUnreachable) {
  const Grid grid(2, 2);
  const ReferenceTrace trace = makeTrace(5, grid);
  FaultMap faults(grid);
  for (ProcId p = 0; p < grid.size(); ++p) faults.killProc(p);
  EXPECT_THROW(Experiment(trace, grid, faults, PipelineConfig{}),
               UnreachableError);
}

TEST(FaultSched, CrossPartitionReferencesThrowUnreachable) {
  const Grid grid(4, 4);
  // One datum referenced from row 0 and row 3; killing row 1 cuts them
  // apart, so no center can serve both sides.
  ReferenceTrace trace(DataSpace::singleSquare(2, "A"));
  trace.add(0, grid.id(0, 0), 0, 3);
  trace.add(0, grid.id(3, 3), 0, 3);
  trace.finalize();
  FaultMap faults(grid);
  faults.killRow(1);
  PipelineConfig cfg;
  cfg.numWindows = 1;
  const Experiment exp(trace, grid, faults, cfg);
  for (const Method m : faultAwareMethods()) {
    EXPECT_THROW((void)exp.schedule(m), UnreachableError) << toString(m);
  }
  // The grouped schedulers name the partition too, not a capacity limit.
  for (const Method m : {Method::kGroupedLomcds, Method::kGroupedGomcds,
                         Method::kGroupedOptimal}) {
    EXPECT_THROW((void)exp.schedule(m), UnreachableError) << toString(m);
  }
}

/// Three data read only by processor 0, in one step.
ReferenceTrace threeDataOnProcessorZero() {
  DataSpace space;
  space.addArray("A", 1, 3);
  ReferenceTrace trace(space);
  for (DataId d = 0; d < 3; ++d) trace.add(0, 0, d, 1);
  trace.finalize();
  return trace;
}

/// Expects every capacity-aware method, and scheduleOnline, to throw E on
/// the experiment.
template <class E>
void expectEveryMethodThrows(const Experiment& exp) {
  for (const Method m :
       {Method::kScds, Method::kLomcds, Method::kGomcds,
        Method::kGroupedLomcds, Method::kGroupedGomcds,
        Method::kGroupedOptimal}) {
    EXPECT_THROW((void)exp.schedule(m), E) << toString(m);
  }
  OnlineOptions online;
  online.capacity = exp.capacity();
  EXPECT_THROW((void)scheduleOnline(exp.refs(), exp.costModel(), online), E)
      << "online";
}

TEST(FaultSched, PartitionedMeshIsUnreachableForEveryMethod) {
  // 1x4 with processor 2 dead splits into {0, 1} and {3}. Capacity 1
  // leaves the third datum only processor 3, which cannot reach its
  // reader: the mesh, not the capacity, is what fails it.
  const Grid grid(1, 4);
  const ReferenceTrace trace = threeDataOnProcessorZero();
  FaultMap faults(grid);
  faults.killProc(2);
  PipelineConfig cfg;
  cfg.numWindows = 1;
  cfg.capacity = 1;
  const Experiment exp(trace, grid, faults, cfg);
  expectEveryMethodThrows<UnreachableError>(exp);
}

TEST(FaultSched, ConnectedMeshOutOfSlotsIsCapacityInfeasibleForEveryMethod) {
  // 1x4 with processor 3 dead stays connected; three slots cannot hold
  // four data.
  const Grid grid(1, 4);
  DataSpace space;
  space.addArray("A", 1, 4);
  ReferenceTrace trace(space);
  for (DataId d = 0; d < 4; ++d) trace.add(0, 0, d, 1);
  trace.finalize();
  FaultMap faults(grid);
  faults.killProc(3);
  PipelineConfig cfg;
  cfg.numWindows = 1;
  cfg.capacity = 1;
  const Experiment exp(trace, grid, faults, cfg);
  expectEveryMethodThrows<CapacityInfeasibleError>(exp);
}

TEST(FaultSched, FaultObliviousBaselineFailsFaultVerify) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(61, grid);
  PipelineConfig cfg;
  cfg.numWindows = 2;
  cfg.capacity = PipelineConfig::kUnlimited;
  FaultMap faults(grid);
  faults.killProc(0);
  const Experiment exp(trace, grid, faults, cfg);
  // Row-wise places data by index, oblivious to the dead processor: the
  // fault verifier must catch the dead center.
  const DataSchedule schedule = exp.schedule(Method::kRowWise);
  const VerifyReport report =
      verifyScheduleFaults(schedule, exp.refs(), exp.costModel());
  EXPECT_FALSE(report.ok());
  bool sawDeadCenter = false;
  for (const ScheduleIssue& issue : report.issues) {
    if (issue.kind == ScheduleIssue::Kind::kDeadCenter) sawDeadCenter = true;
  }
  EXPECT_TRUE(sawDeadCenter);
}

TEST(FaultSched, ReplayHopVolumeMatchesAnalyticCostUnderFaults) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(83, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap faults(grid);
  faults.killProc(6);
  faults.killLink(1, 2);
  const Experiment exp(trace, grid, faults, cfg);
  for (const Method m : faultAwareMethods()) {
    const DataSchedule schedule = exp.schedule(m);
    const EvalResult eval =
        evaluateSchedule(schedule, exp.refs(), exp.costModel());
    const ReplayReport replay =
        replaySchedule(schedule, exp.refs(), exp.costModel());
    // Invariant 10 extended to faulted meshes: simulated hop volume over
    // the detoured routes equals the analytic fault-aware cost.
    EXPECT_EQ(replay.total.totalHopVolume, eval.aggregate.total())
        << toString(m);
  }
}

TEST(FaultSched, GomcdsDedupIdenticalUnderFaults) {
  // The engine must match the literal per-datum reference on faulted
  // meshes too — both in the static-mask regime (dead processors only:
  // infinite serving cost keeps the forbidden set fixed, and dedup classes
  // share solves) and the dynamic one (an alive processor with a reduced
  // capacity limit forces per-datum masked solves).
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(131, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap deadOnly(grid);
  deadOnly.killProc(3);
  deadOnly.killProc(12);
  FaultMap limited(grid);
  limited.killProc(3);
  limited.limitCapacity(7, 2);
  for (const FaultMap* faults : {&deadOnly, &limited}) {
    const Experiment exp(trace, grid, *faults, cfg);
    for (const std::int64_t capacity : {std::int64_t{-1}, exp.capacity()}) {
      const SchedulerOptions on{capacity, cfg.order};
      const DataSchedule a = scheduleGomcds(exp.refs(), exp.costModel(), on);
      const DataSchedule b =
          testutil::referenceGomcds(exp.refs(), exp.costModel(), on);
      const DataSchedule c =
          scheduleGomcds(exp.refs(), exp.costModel(), on, 4);
      for (DataId d = 0; d < a.numData(); ++d) {
        for (WindowId w = 0; w < a.numWindows(); ++w) {
          ASSERT_EQ(a.center(d, w), b.center(d, w)) << "reference diverged";
          ASSERT_EQ(a.center(d, w), c.center(d, w)) << "parallel diverged";
        }
      }
    }
  }
}

TEST(FaultSched, GomcdsEnginesAgreeUnderFaults) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(97, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap faults(grid);
  faults.injectUniformProcs(2, 9);
  const Experiment seq(trace, grid, faults, cfg);
  PipelineConfig par = cfg;
  par.threads = 4;
  const Experiment parallel(trace, grid, faults, par);
  const DataSchedule a = seq.schedule(Method::kGomcds);
  const DataSchedule b = parallel.schedule(Method::kGomcds);
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w));
    }
  }
}

/// Random faulted meshes for the engine-identity sweep: dead processors,
/// one-way dead links, and sometimes a reduced capacity limit on an alive
/// processor (which makes the forbidden set grow while data are placed).
/// Redrawn until the alive mesh is connected, so every job is feasible.
FaultMap randomConnectedFaults(Rng& rng, const Grid& grid) {
  for (;;) {
    FaultMap faults(grid);
    const int procs = static_cast<int>(rng.range(1, grid.size() / 8 + 1));
    for (int i = 0; i < procs; ++i) {
      faults.killProc(static_cast<ProcId>(
          rng.below(static_cast<std::uint64_t>(grid.size()))));
    }
    const int links = static_cast<int>(rng.range(1, grid.size() / 4 + 1));
    for (int i = 0; i < links; ++i) {
      const auto from = static_cast<ProcId>(
          rng.below(static_cast<std::uint64_t>(grid.size())));
      const std::vector<ProcId> next = grid.neighbors(from);
      faults.killLink(from, next[rng.below(next.size())]);
    }
    if (rng.below(2) == 0) {
      faults.limitCapacity(
          static_cast<ProcId>(
              rng.below(static_cast<std::uint64_t>(grid.size()))),
          rng.range(1, 3));
    }
    if (!DistanceMap(grid, faults).partitioned()) return faults;
  }
}

void expectSame(const DataSchedule& a, const DataSchedule& b,
                const std::string& what) {
  ASSERT_EQ(a.numData(), b.numData()) << what;
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w))
          << what << ": datum " << d << " window " << w;
    }
  }
}

// The faulted fast path (mesh sweeps) against the literal per-datum dense
// cost-graph reference, across thread counts. Every schedule must be
// bit-identical, with and without capacity pressure.
TEST(FaultSched, MeshEngineMatchesDenseOracleAcrossToggles) {
  Rng rng(1401);
  for (const auto& [rows, cols] :
       std::vector<std::pair<int, int>>{{1, 9}, {5, 7}, {8, 8}}) {
    const Grid grid(rows, cols);
    for (int trial = 0; trial < 3; ++trial) {
      const FaultMap faults = randomConnectedFaults(rng, grid);
      const ReferenceTrace trace =
          testutil::randomTrace(rng, grid, 6, 6, 12, 16);
      PipelineConfig cfg;
      cfg.numWindows = 5;
      const Experiment exp(trace, grid, faults, cfg);
      for (const std::int64_t capacity :
           {std::int64_t{-1}, exp.capacity()}) {
        const SchedulerOptions on{capacity, cfg.order};
        const std::string at = std::to_string(rows) + "x" +
                               std::to_string(cols) + " trial " +
                               std::to_string(trial) + " capacity " +
                               std::to_string(capacity);
        const DataSchedule oracle =
            testutil::referenceGomcds(exp.refs(), exp.costModel(), on);
        expectSame(scheduleGomcds(exp.refs(), exp.costModel(), on), oracle,
                   at + " mesh");
        for (const unsigned threads : {2u, 3u, 4u, 0u}) {
          expectSame(
              scheduleGomcds(exp.refs(), exp.costModel(), on, threads),
              oracle, at + " threads " + std::to_string(threads));
        }
      }
    }
  }
}

}  // namespace
}  // namespace pimsched
