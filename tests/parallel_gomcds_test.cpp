#include "core/gomcds.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "gomcds_reference.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

void expectSameSchedule(const DataSchedule& par, const DataSchedule& seq,
                        const std::string& what) {
  ASSERT_EQ(par.numData(), seq.numData()) << what;
  for (DataId d = 0; d < seq.numData(); ++d) {
    for (WindowId w = 0; w < seq.numWindows(); ++w) {
      ASSERT_EQ(par.center(d, w), seq.center(d, w))
          << what << " datum " << d << " window " << w;
    }
  }
}

TEST(ParallelGomcds, BitIdenticalToSequential) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(191);
  for (int trial = 0; trial < 4; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 5, 5, 16, 30);
    const WindowedRefs refs = refsFromTrace(t, g, 8);
    const DataSchedule seq = testutil::referenceGomcds(refs, model);
    for (const unsigned threads : {1u, 2u, 3u, 4u, 0u}) {
      const DataSchedule par = scheduleGomcds(refs, model, {}, threads);
      for (DataId d = 0; d < refs.numData(); ++d) {
        for (WindowId w = 0; w < refs.numWindows(); ++w) {
          ASSERT_EQ(par.center(d, w), seq.center(d, w))
              << "threads=" << threads;
        }
      }
    }
  }
}

TEST(ParallelGomcds, MoreThreadsThanDataIsFine) {
  const Grid g(2, 2);
  const CostModel model(g);
  DataSpace ds;
  ds.addArray("A", 1, 2);
  ReferenceTrace t(ds);
  t.add(0, 0, 0, 1);
  t.add(0, 3, 1, 2);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::whole(1), g);
  const DataSchedule s = scheduleGomcds(refs, model, {}, 16);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.center(0, 0), 0);
  EXPECT_EQ(s.center(1, 0), 3);
}

TEST(ParallelGomcds, BitIdenticalToSequentialWithCapacity) {
  // The engine must honor the capacity constraint and still reproduce the
  // literal sequential reference exactly, for every thread count and both
  // visit orders.
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(293);
  for (const DataOrder order : {DataOrder::kById, DataOrder::kByWeightDesc}) {
    for (int trial = 0; trial < 3; ++trial) {
      const ReferenceTrace t = testutil::randomTrace(rng, g, 6, 6, 24, 50);
      const WindowedRefs refs = refsFromTrace(t, g, 6);
      // Tight capacity: the minimum slots per processor that can hold all
      // data, which forces real conflicts between optimal paths.
      const std::int64_t tight =
          (refs.numData() + g.size() - 1) / g.size();
      for (const std::int64_t cap : {tight, tight + 1}) {
        const SchedulerOptions opts{cap, order};
        const DataSchedule seq = testutil::referenceGomcds(refs, model, opts);
        for (const unsigned threads : {1u, 2u, 3u, 4u, 0u}) {
          const DataSchedule par = scheduleGomcds(refs, model, opts, threads);
          for (DataId d = 0; d < refs.numData(); ++d) {
            for (WindowId w = 0; w < refs.numWindows(); ++w) {
              ASSERT_EQ(par.center(d, w), seq.center(d, w))
                  << "threads=" << threads << " cap=" << cap
                  << " order=" << static_cast<int>(order);
            }
          }
          ASSERT_TRUE(par.respectsCapacity(g, cap));
          ASSERT_EQ(evaluateSchedule(par, refs, model).aggregate.total(),
                    evaluateSchedule(seq, refs, model).aggregate.total());
        }
      }
    }
  }
}

TEST(ParallelGomcds, InfeasibleCapacityThrowsLikeSequential) {
  const Grid g(2, 2);
  const CostModel model(g);
  struct Case {
    int rows, cols, windows;
    std::int64_t capacity;
  };
  // 9 data with capacity 2, and 161 data with capacity 40: one datum more
  // than the 4 processors hold. In the second case the unplaceable datum
  // comes after 160 committed ones, so the throw leaves a long partly
  // filled placement behind.
  for (const Case c : {Case{3, 3, 3, 2}, Case{7, 23, 4, 40}}) {
    testutil::Rng rng(77);
    const ReferenceTrace t =
        testutil::randomTrace(rng, g, c.rows, c.cols, 20, 40);
    const WindowedRefs refs = refsFromTrace(t, g, c.windows);
    ASSERT_EQ(refs.numData(), 4 * c.capacity + 1);
    for (const DataOrder order :
         {DataOrder::kById, DataOrder::kByWeightDesc}) {
      const SchedulerOptions opts{c.capacity, order};
      const std::string kind = testutil::thrownKind(
          [&] { return testutil::referenceGomcds(refs, model, opts); });
      ASSERT_EQ(kind, "runtime");
      std::string expected;
      for (const unsigned threads : {1u, 2u, 3u, 4u, 0u}) {
        EXPECT_EQ(testutil::thrownKind([&] {
                    return scheduleGomcds(refs, model, opts, threads);
                  }),
                  kind)
            << "threads=" << threads;
        try {
          (void)scheduleGomcds(refs, model, opts, threads);
        } catch (const std::runtime_error& e) {
          if (expected.empty()) expected = e.what();
          EXPECT_EQ(std::string(e.what()), expected)
              << "threads=" << threads;
        }
      }
    }
  }
}

TEST(ParallelGomcds, CostEqualsSequentialOptimal) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(192);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 6, 6, 20, 40);
  const WindowedRefs refs = refsFromTrace(t, g, 10);
  const Cost seq =
      evaluateSchedule(testutil::referenceGomcds(refs, model), refs, model)
          .aggregate.total();
  const Cost par =
      evaluateSchedule(scheduleGomcds(refs, model, {}, 0), refs, model)
          .aggregate.total();
  EXPECT_EQ(seq, par);
}

// The capacity-constrained engine solves and commits one datum at a time
// in visit order at every thread count. 441 data at the tightest capacity
// fill most slots, so late data are solved against a forbidden set that
// hundreds of earlier commits grew, and the schedule must still equal the
// reference at threads 1/2/3/4/0.
TEST(ParallelGomcds, BitIdenticalAcrossLookaheadWindows) {
  const Grid g(8, 8);
  const CostModel model(g);
  testutil::Rng rng(1409);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 21, 21, 30, 60);
  const WindowedRefs refs = refsFromTrace(t, g, 6);
  ASSERT_EQ(refs.numData(), 441);
  const std::int64_t tight = (refs.numData() + g.size() - 1) / g.size();
  for (const DataOrder order : {DataOrder::kById, DataOrder::kByWeightDesc}) {
    for (const std::int64_t cap : {tight, tight + 1}) {
      const SchedulerOptions opts{cap, order};
      const DataSchedule seq = testutil::referenceGomcds(refs, model, opts);
      for (const unsigned threads : {1u, 2u, 3u, 4u, 0u}) {
        const std::string at =
            "threads=" + std::to_string(threads) +
            " cap=" + std::to_string(cap) +
            " order=" + std::to_string(static_cast<int>(order));
        const DataSchedule par = scheduleGomcds(refs, model, opts, threads);
        expectSameSchedule(par, seq, at);
        ASSERT_TRUE(par.respectsCapacity(g, cap)) << at;
      }
    }
  }
}

// Per-processor fault capacity limits make the forbidden set dynamic even
// without a global capacity, so both regimes run the faulted mesh kernel
// through the capacity loop, in both visit orders.
TEST(ParallelGomcds, FaultedCapacityLimitsAcrossLookaheadWindows) {
  const Grid g(8, 8);
  FaultMap faults(g);
  faults.killProc(9);
  faults.killProc(30);
  faults.killProc(45);
  faults.killLink(12, 13);
  faults.killLink(36, 28);
  for (const ProcId p : {0, 7, 18, 27, 35, 54, 63}) {
    faults.limitCapacity(p, 1 + p % 3);
  }
  testutil::Rng rng(1410);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 21, 21, 30, 60);
  PipelineConfig cfg;
  cfg.numWindows = 6;
  const Experiment exp(t, g, faults, cfg);
  ASSERT_EQ(exp.refs().numData(), 441);
  for (const DataOrder order : {DataOrder::kById, DataOrder::kByWeightDesc}) {
    for (const std::int64_t cap : {std::int64_t{-1}, exp.capacity()}) {
      const SchedulerOptions opts{cap, order};
      const DataSchedule seq =
          testutil::referenceGomcds(exp.refs(), exp.costModel(), opts);
      for (const unsigned threads : {1u, 2u, 3u, 4u, 0u}) {
        expectSameSchedule(
            scheduleGomcds(exp.refs(), exp.costModel(), opts, threads), seq,
            "threads=" + std::to_string(threads) +
                " cap=" + std::to_string(cap) +
                " order=" + std::to_string(static_cast<int>(order)));
      }
    }
  }
}

// Faults that cut the mesh make a datum referenced on both sides
// unplaceable: every thread count throws UnreachableError, like the
// reference. A fault capacity limit that leaves too few slots throws the
// plain capacity error instead.
TEST(ParallelGomcds, FaultedInfeasibleThrowsLikeReference) {
  const Grid g(1, 5);
  DataSpace ds;
  ds.addArray("A", 1, 4);
  ReferenceTrace t(ds);
  t.add(0, 0, 0, 1);
  t.add(0, 4, 0, 1);
  t.add(0, 1, 1, 2);
  t.add(1, 3, 2, 1);
  t.add(1, 0, 3, 1);
  t.finalize();
  FaultMap cut(g);
  cut.killProc(2);
  FaultMap limited(g);
  for (const ProcId p : {0, 1, 2, 3, 4}) {
    limited.limitCapacity(p, p == 0 ? 1 : 0);  // one slot in the whole mesh
  }
  for (const FaultMap* faults : {&cut, &limited}) {
    const DistanceMap distances(g, *faults);
    const CostModel model(g, distances);
    const WindowedRefs refs =
        WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), 2), g)
            .withProcsMasked(faults->deadProcMask());
    for (const std::int64_t cap : {std::int64_t{-1}, std::int64_t{2}}) {
      const SchedulerOptions opts{cap, DataOrder::kById};
      const std::string kind = testutil::thrownKind(
          [&] { return testutil::referenceGomcds(refs, model, opts); });
      ASSERT_EQ(kind, faults == &cut ? "unreachable" : "runtime");
      for (const unsigned threads : {1u, 2u, 3u, 4u, 0u}) {
        EXPECT_EQ(testutil::thrownKind([&] {
                    return scheduleGomcds(refs, model, opts, threads);
                  }),
                  kind)
            << "threads=" << threads << " cap=" << cap;
      }
    }
  }
}

}  // namespace
}  // namespace pimsched
