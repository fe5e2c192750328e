#include "ablation/replication.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/scds.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

TEST(Replication, SingleReplicaEqualsScds) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(121);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);

  ReplicationOptions opts;
  opts.maxReplicasPerDatum = 1;
  opts.order = DataOrder::kById;
  const ReplicatedSchedule rs = scheduleReplicated(refs, model, opts);

  SchedulerOptions scdsOpts;
  scdsOpts.order = DataOrder::kById;
  const DataSchedule scds = scheduleScds(refs, model, scdsOpts);

  EXPECT_EQ(evaluateReplicated(rs, refs, model),
            evaluateSchedule(scds, refs, model).aggregate.total());
  for (DataId d = 0; d < refs.numData(); ++d) {
    ASSERT_EQ(rs.replicas(d).size(), 1u);
    EXPECT_EQ(rs.replicas(d)[0], scds.center(d, 0));
  }
}

TEST(Replication, MoreReplicasNeverCostMore) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(122);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 30);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  Cost prev = kInfiniteCost;
  for (int k = 1; k <= 4; ++k) {
    ReplicationOptions opts;
    opts.maxReplicasPerDatum = k;
    const Cost c =
        evaluateReplicated(scheduleReplicated(refs, model, opts), refs,
                           model);
    EXPECT_LE(c, prev);
    prev = c;
  }
}

TEST(Replication, BroadcastDataBenefitMost) {
  // One datum read by every processor: with 4 replicas spread out, the
  // serving cost must drop well below the single-copy optimum.
  const Grid g(4, 4);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(1));
  for (ProcId p = 0; p < g.size(); ++p) t.add(0, p, 0, 10);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 1);

  ReplicationOptions one;
  one.maxReplicasPerDatum = 1;
  ReplicationOptions four;
  four.maxReplicasPerDatum = 4;
  const Cost single =
      evaluateReplicated(scheduleReplicated(refs, model, one), refs, model);
  const Cost quad =
      evaluateReplicated(scheduleReplicated(refs, model, four), refs, model);
  EXPECT_LT(quad, single / 2);
}

TEST(Replication, MinGainStopsUselessCopies) {
  // All references on one processor: extra replicas gain nothing, so only
  // the primary copy should be placed.
  const Grid g(4, 4);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 5, 0, 100);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 1);
  ReplicationOptions opts;
  opts.maxReplicasPerDatum = 4;
  const ReplicatedSchedule rs = scheduleReplicated(refs, model, opts);
  EXPECT_EQ(rs.replicas(0).size(), 1u);
  EXPECT_EQ(rs.replicas(0)[0], 5);
}

TEST(Replication, CapacityBoundsTotalReplicas) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(123);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 6, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  ReplicationOptions opts;
  opts.maxReplicasPerDatum = 4;
  opts.capacity = 3;  // 12 slots for 9 primaries: at most 3 extra copies
  const ReplicatedSchedule rs = scheduleReplicated(refs, model, opts);
  EXPECT_LE(rs.totalReplicas(), 12);
  EXPECT_GE(rs.totalReplicas(), 9);  // every datum has a primary
}

TEST(Replication, EvaluateRejectsShapeMismatch) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(124);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 4, 8);
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  const ReplicatedSchedule wrong(refs.numData() + 1);
  EXPECT_THROW((void)evaluateReplicated(wrong, refs, model),
               std::invalid_argument);
}

TEST(Replication, RejectsBadOptions) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(125);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 4, 8);
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  ReplicationOptions opts;
  opts.maxReplicasPerDatum = 0;
  EXPECT_THROW((void)scheduleReplicated(refs, model, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace pimsched
