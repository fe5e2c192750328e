#include "core/gomcds.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "ablation/dense_gomcds.hpp"
#include "core/evaluator.hpp"
#include "core/lomcds.hpp"
#include "core/pipeline.hpp"
#include "core/scds.hpp"
#include "exhaustive.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "gomcds_reference.hpp"
#include "kernels/benchmarks.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace pimsched {
namespace {

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

TEST(Gomcds, StaysPutWhenMovementDominates) {
  const Grid g(1, 4);
  CostParams params;
  params.moveVolume = 100;  // migrating is prohibitively expensive
  const CostModel model(g, params);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 1);
  t.add(1, 3, 0, 1);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  const DataSchedule s = scheduleGomcds(refs, model);
  EXPECT_EQ(s.center(0, 0), s.center(0, 1));
}

TEST(Gomcds, MovesWhenReferencesDominate) {
  const Grid g(1, 4);
  const CostModel model(g);  // moveVolume 1
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 10);
  t.add(1, 3, 0, 10);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  const DataSchedule s = scheduleGomcds(refs, model);
  EXPECT_EQ(s.center(0, 0), 0);
  EXPECT_EQ(s.center(0, 1), 3);
}

TEST(Gomcds, NeverWorseThanLomcdsOrScds) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(51);
  for (int trial = 0; trial < 8; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 25);
    const WindowedRefs refs = refsFromTrace(t, g, 4);
    const Cost go =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost lo =
        evaluateSchedule(scheduleLomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost sc =
        evaluateSchedule(scheduleScds(refs, model), refs, model)
            .aggregate.total();
    EXPECT_LE(go, lo);
    EXPECT_LE(go, sc);
  }
}

TEST(Gomcds, MatchesExhaustiveOptimumUncapacitated) {
  // DESIGN.md invariant 4: on small instances GOMCDS equals the brute
  // force optimum per datum.
  const Grid g(2, 3);
  const CostModel model(g);
  testutil::Rng rng(52);
  for (int trial = 0; trial < 6; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 8, 10);
    const WindowedRefs refs = refsFromTrace(t, g, 4);
    const EvalResult go =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model);
    const EvalResult ex =
        evaluateSchedule(scheduleExhaustive(refs, model), refs, model);
    EXPECT_EQ(go.aggregate.total(), ex.aggregate.total());
  }
}

// The capacity loop against the literal dense cost-graph reference.
TEST(Gomcds, MatchesDenseReferenceUnderCapacity) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(53);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 12, 18);
  const WindowedRefs refs = refsFromTrace(t, g, 5);
  SchedulerOptions opts;
  opts.capacity = 4;
  const DataSchedule fast = scheduleGomcds(refs, model, opts);
  const DataSchedule dense = testutil::referenceGomcds(refs, model, opts);
  for (DataId d = 0; d < refs.numData(); ++d) {
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      ASSERT_EQ(fast.center(d, w), dense.center(d, w));
    }
  }
}

TEST(Gomcds, CapacityRespectedPerWindow) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(54);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 8, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  SchedulerOptions opts;
  opts.capacity = 3;
  const DataSchedule s = scheduleGomcds(refs, model, opts);
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(s.respectsCapacity(g, 3));
}

TEST(Gomcds, CapacityCannotImproveCost) {
  // Adding a capacity constraint can only increase the optimal cost.
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(55);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 10, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  const Cost unconstrained =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model)
          .aggregate.total();
  SchedulerOptions opts;
  opts.capacity = 2;
  const Cost constrained =
      evaluateSchedule(scheduleGomcds(refs, model, opts), refs, model)
          .aggregate.total();
  EXPECT_GE(constrained, unconstrained);
}

TEST(Gomcds, ExactFitCapacityAccountingStaysConsistent) {
  // Regression for the tryPlace-result check: at the tightest feasible
  // capacity (data exactly fill the array) every slot is claimed, so any
  // drift between the solver's view and the occupancy maps would surface
  // as the scheduler's internal logic_error. A clean run proves the two
  // stay in lock-step.
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(57);
  for (int trial = 0; trial < 3; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 4, 16);
    const WindowedRefs refs = refsFromTrace(t, g, 3);
    SchedulerOptions opts;
    opts.capacity = 1;  // 4 data on 4 processors: exact fit
    const DataSchedule s = scheduleGomcds(refs, model, opts);
    EXPECT_TRUE(s.complete());
    EXPECT_TRUE(s.respectsCapacity(g, 1));
  }
}

TEST(Gomcds, InfeasibleCapacityThrows) {
  const Grid g(1, 2);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 1);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 1);
  SchedulerOptions opts;
  opts.capacity = 1;
  EXPECT_THROW(scheduleGomcds(refs, model, opts), std::runtime_error);
}

void expectIdenticalSchedules(const DataSchedule& a, const DataSchedule& b,
                              const char* what) {
  ASSERT_EQ(a.numData(), b.numData());
  ASSERT_EQ(a.numWindows(), b.numWindows());
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w))
          << what << ": datum " << d << " window " << w;
    }
  }
}

TEST(Gomcds, DedupProducesIdenticalSchedulesOnMatmul) {
  // Matmul rows share reference strings, so the dedup layer collapses them
  // into equivalence classes under the static forbidden set; the schedule
  // must stay bit-identical to the literal per-datum reference, with and
  // without capacity pressure, at one and at four threads.
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, 8);
  PipelineConfig cfg;
  cfg.numWindows = 8;
  const Experiment exp(t, g, cfg);
  for (const std::int64_t capacity : {std::int64_t{-1}, exp.capacity()}) {
    const SchedulerOptions on{capacity, cfg.order};
    const DataSchedule withDedup =
        scheduleGomcds(exp.refs(), exp.costModel(), on);
    const DataSchedule without =
        testutil::referenceGomcds(exp.refs(), exp.costModel(), on);
    expectIdenticalSchedules(withDedup, without,
                             capacity < 0 ? "uncapacitated" : "capacitated");
    const DataSchedule parallel =
        scheduleGomcds(exp.refs(), exp.costModel(), on, 4);
    expectIdenticalSchedules(withDedup, parallel,
                             capacity < 0 ? "parallel uncap" : "parallel cap");
  }
}

#ifdef PIMSCHED_NO_OBS
#define PIMSCHED_OBS_TEST_GUARD() \
  GTEST_SKIP() << "instrumentation compiled out (PIMSCHED_NO_OBS)"
#else
#define PIMSCHED_OBS_TEST_GUARD() \
  do {                            \
  } while (0)
#endif

TEST(Gomcds, DedupCountersTrackClasses) {
  PIMSCHED_OBS_TEST_GUARD();
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, 8);
  PipelineConfig cfg;
  cfg.numWindows = 8;
  const Experiment exp(t, g, cfg);

  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  (void)scheduleGomcds(exp.refs(), exp.costModel());
  const std::int64_t classes =
      registry.counterValue("gomcds.dedup.classes");
  const std::int64_t deduped = registry.counterValue("gomcds.dedup.data");
  EXPECT_GT(classes, 1);
  EXPECT_LT(classes, exp.refs().numData());  // matmul rows really collapse
  EXPECT_EQ(classes + deduped, exp.refs().numData());
  // Static forbidden set: one flat solve per class, not per datum.
  EXPECT_EQ(registry.counterValue("gomcds.flat.solves"), classes);
  registry.reset();
}

TEST(Gomcds, FaultedFastPathBuildsNoTransitionTable) {
  PIMSCHED_OBS_TEST_GUARD();
  const Grid g(6, 6);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, 12);
  FaultMap faults(g);
  faults.killProc(8);
  faults.killLink(14, 15);
  PipelineConfig cfg;
  cfg.numWindows = 6;
  const Experiment exp(t, g, faults, cfg);
  SchedulerOptions opts{exp.capacity(), cfg.order};

  // The mesh sweeps relax every faulted layer, at one thread or two,
  // whatever the capacity regime.
  obs::Registry& registry = obs::Registry::instance();
  for (const std::int64_t capacity : {std::int64_t{-1}, exp.capacity()}) {
    opts.capacity = capacity;
    registry.reset();
    (void)scheduleGomcds(exp.refs(), exp.costModel(), opts);
    (void)scheduleGomcds(exp.refs(), exp.costModel(), opts, 2);
    EXPECT_GE(registry.counterValue("solver.mesh_sweeps"),
              registry.counterValue("solver.relaxed_layers"));
  }
  registry.reset();
}

// On a healthy mesh scheduleGomcds takes the separable solve and its
// capacity screen; the mesh engine on an empty-fault DistanceMap and the
// literal dense reference (testutil::referenceGomcds) never do. Their
// schedules must agree cell for cell at unlimited, paper 2x-minimum and
// tight capacity, at every thread count, on thin and odd grids, with
// windows that reference a datum not at all, with one window, and with
// hopCost or moveVolume zero (where every center or every move ties).
TEST(Gomcds, SeparableScreenMatchesMeshAndDenseEngines) {
  testutil::Rng rng(3401);
  for (const auto& [rows, cols] :
       {std::pair{1, 1}, {1, 6}, {6, 1}, {3, 5}, {8, 8}}) {
    const Grid g(rows, cols);
    const FaultMap noFaults(g);
    const DistanceMap distances(g, noFaults);
    for (const CostParams params :
         {CostParams{1, 1}, CostParams{0, 1}, CostParams{1, 0},
          CostParams{2, 3}}) {
      const CostModel healthy(g, params);
      const CostModel mesh(g, distances, params);
      const ReferenceTrace t = testutil::randomTrace(rng, g, 6, 6, 12, 8);
      for (const int windows : {1, 6}) {
        const WindowedRefs refs = refsFromTrace(t, g, windows);
        const std::int64_t minCap =
            (refs.numData() + g.size() - 1) / g.size();
        for (const std::int64_t capacity :
             {std::int64_t{-1}, 2 * minCap, minCap}) {
          const SchedulerOptions opts{capacity, DataOrder::kByWeightDesc};
          const DataSchedule expect = scheduleGomcds(refs, mesh, opts);
          expectIdenticalSchedules(
              testutil::referenceGomcds(refs, healthy, opts), expect,
              "dense reference");
          for (const unsigned threads : {1u, 2u, 4u}) {
            const std::string where =
                std::to_string(rows) + "x" + std::to_string(cols) +
                " hop " + std::to_string(params.hopCost) + " move " +
                std::to_string(params.moveVolume) + " W " +
                std::to_string(windows) + " cap " + std::to_string(capacity) +
                " threads " + std::to_string(threads);
            expectIdenticalSchedules(
                scheduleGomcds(refs, healthy, opts, threads), expect,
                where.c_str());
          }
        }
      }
    }
  }
}

// Under capacity each datum is solved exactly once, against the live
// forbidden set, at every thread count: solves = data. No dedup under
// capacity.
//
// On a healthy mesh every datum's solve is first separable, and only a
// datum whose separable path hit a full slot (a screen miss) builds its
// serve table, from the separable solve's marginals with no row computed
// by separableCenterCostsInto, and runs a 2-D solve (solver.runs). On the
// mesh engine's model (an empty-fault DistanceMap) every datum builds its
// W rows (cost.center_eval_calls) and runs one 2-D solve.
TEST(Gomcds, ParallelCapacityCountersBoundSolves) {
  PIMSCHED_OBS_TEST_GUARD();
  const Grid g(8, 8);
  const CostModel healthy(g);
  const FaultMap noFaults(g);
  const DistanceMap meshDistances(g, noFaults);
  const CostModel mesh(g, meshDistances);
  testutil::Rng rng(1412);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 21, 21, 30, 60);
  const WindowedRefs refs = refsFromTrace(t, g, 6);
  const std::int64_t n = refs.numData();
  const std::int64_t W = refs.numWindows();
  const std::int64_t tight = (n + g.size() - 1) / g.size();
  obs::Registry& registry = obs::Registry::instance();
  const SchedulerOptions opts{tight, DataOrder::kByWeightDesc};
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const CostModel* model : {&healthy, &mesh}) {
      const bool separable = model == &healthy;
      const std::string where = std::string(separable ? "healthy" : "mesh") +
                                " threads=" + std::to_string(threads);
      registry.reset();
      (void)scheduleGomcds(refs, *model, opts, threads);
      EXPECT_EQ(registry.counterValue("gomcds.flat.solves"), n) << where;
      EXPECT_EQ(registry.counterValue("sched.gomcds.data"), n) << where;
      const std::int64_t rows = registry.counterValue("cost.center_eval_calls");
      const std::int64_t runs2d = registry.counterValue("solver.runs");
      if (!separable) {
        EXPECT_EQ(registry.counterValue("gomcds.separable.solves"), 0) << where;
        EXPECT_EQ(rows, n * W) << where;
        EXPECT_EQ(runs2d, n) << where;
        continue;
      }
      // Each screen miss builds one serve table and runs one 2-D solve.
      const std::int64_t misses =
          registry.counterValue("gomcds.separable.screen_misses");
      EXPECT_EQ(registry.counterValue("gomcds.separable.solves"), n) << where;
      EXPECT_EQ(rows, 0) << where;
      EXPECT_EQ(runs2d, misses) << where;
      EXPECT_GT(misses, 0) << where;  // the tight capacity bites
      EXPECT_LT(misses, n) << where;  // and the screen passes some data
    }
  }
  registry.reset();
}

// A call from inside a pool worker solves each datum once too, and
// schedules like a direct call.
TEST(Gomcds, NestedCallSolvesEachDatumOnce) {
  PIMSCHED_OBS_TEST_GUARD();
  const Grid g(8, 8);
  const CostModel model(g);
  testutil::Rng rng(1412);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 21, 21, 30, 60);
  const WindowedRefs refs = refsFromTrace(t, g, 6);
  const std::int64_t n = refs.numData();
  const SchedulerOptions opts{(n + g.size() - 1) / g.size(),
                              DataOrder::kByWeightDesc};
  const DataSchedule direct = scheduleGomcds(refs, model, opts, 4);

  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  std::optional<DataSchedule> nested;
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  ThreadPool::global().submit([&] {
    nested.emplace(scheduleGomcds(refs, model, opts, 4));
    const std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });

  EXPECT_EQ(registry.counterValue("gomcds.flat.solves"), n);
  ASSERT_TRUE(nested.has_value());
  expectIdenticalSchedules(*nested, direct, "nested");
  registry.reset();
}

TEST(Gomcds, ZeroMoveVolumeDegeneratesToLomcdsServeCost) {
  // With free movement GOMCDS serves every window at its local optimum.
  const Grid g(3, 3);
  CostParams params;
  params.moveVolume = 0;
  const CostModel model(g, params);
  testutil::Rng rng(56);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 9, 15);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  const EvalResult go =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model);
  const EvalResult lo =
      evaluateSchedule(scheduleLomcds(refs, model), refs, model);
  EXPECT_EQ(go.aggregate.serve, lo.aggregate.serve);
  EXPECT_EQ(go.aggregate.move, 0);
}

// The frozen dense baseline the benches time the mesh sweeps against: the
// same schedule as scheduleGomcds under a static forbidden set, on healthy
// and faulted meshes, and refused when the forbidden set can grow.
TEST(DenseGomcds, MatchesSchedulerAndRefusesAGrowingForbiddenSet) {
  const Grid g(5, 5);
  testutil::Rng rng(57);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 14, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  FaultMap faults(g);
  faults.killProc(7);
  faults.killLink(12, 13);
  const DistanceMap distances(g, faults);
  const WindowedRefs masked = refs.withProcsMasked(faults.deadProcMask());
  const CostModel healthy(g);
  const CostModel faulted(g, distances);
  expectIdenticalSchedules(scheduleDenseGomcds(refs, healthy),
                           scheduleGomcds(refs, healthy), "healthy");
  expectIdenticalSchedules(scheduleDenseGomcds(masked, faulted),
                           scheduleGomcds(masked, faulted), "faulted");

  SchedulerOptions capped;
  capped.capacity = 4;
  EXPECT_THROW((void)scheduleDenseGomcds(refs, healthy, capped),
               std::invalid_argument);
  faults.limitCapacity(3, 1);
  const DistanceMap limitedDistances(g, faults);
  const CostModel limited(g, limitedDistances);
  EXPECT_THROW((void)scheduleDenseGomcds(masked, limited),
               std::invalid_argument);
}

}  // namespace
}  // namespace pimsched
