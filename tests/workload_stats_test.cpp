#include "ablation/workload_stats.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "kernels/benchmarks.hpp"

namespace pimsched {
namespace {

TEST(WorkloadStats, PerfectlyLocalStaticWorkload) {
  // Every datum referenced by exactly one processor in every window.
  const Grid g(2, 2);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(2));
  for (StepId s = 0; s < 4; ++s) {
    for (DataId d = 0; d < 4; ++d) t.add(s, static_cast<ProcId>(d), d, 2);
  }
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(4), g);
  const TraceStats stats = computeTraceStats(refs, model);
  EXPECT_EQ(stats.numData, 4);
  EXPECT_EQ(stats.numWindows, 4);
  EXPECT_EQ(stats.totalWeight, 32);
  EXPECT_DOUBLE_EQ(stats.unreferencedFraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.meanProcsPerWindow, 1.0);
  EXPECT_DOUBLE_EQ(stats.meanCenterDrift, 0.0);
}

TEST(WorkloadStats, DriftingHotspot) {
  // One datum whose sole referencing processor walks the diagonal: the
  // local center moves 2 hops per window.
  const Grid g(4, 4);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(1));
  for (int k = 0; k < 4; ++k) t.add(k, g.id(k, k), 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(4), g);
  const TraceStats stats = computeTraceStats(refs, model);
  EXPECT_DOUBLE_EQ(stats.meanCenterDrift, 2.0);
}

TEST(WorkloadStats, UnreferencedFraction) {
  const Grid g(2, 2);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(2));  // 4 data
  t.add(0, 0, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::whole(1), g);
  const TraceStats stats = computeTraceStats(refs, model);
  EXPECT_DOUBLE_EQ(stats.unreferencedFraction, 0.75);
}

TEST(WorkloadStats, SkewCapturesHotData) {
  const Grid g(2, 2);
  const CostModel model(g);
  DataSpace ds;
  ds.addArray("A", 2, 10);  // 20 data -> decile of 2
  ReferenceTrace t(ds);
  t.add(0, 0, 0, 98);  // one hot datum
  t.add(0, 0, 1, 1);
  t.add(0, 0, 2, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::whole(1), g);
  const TraceStats stats = computeTraceStats(refs, model);
  EXPECT_DOUBLE_EQ(stats.topDecileWeightShare, 0.99);
}

TEST(WorkloadStats, CodeBenchmarkDriftsMoreThanMatmul) {
  // The CODE substitute exists because its reference pattern is irregular
  // and drifting; the stats must rank it above the static matmul.
  const Grid g(4, 4);
  const CostModel model(g);
  const int n = 16;
  const ReferenceTrace mat =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, n);
  const ReferenceTrace codeRev =
      makePaperBenchmark(PaperBenchmark::kCodeRev, g, n);
  const WindowedRefs matRefs(
      mat, WindowPartition::perStep(mat.numSteps()), g);
  const WindowedRefs codeRefs(
      codeRev, WindowPartition::perStep(codeRev.numSteps()), g);
  const TraceStats matStats = computeTraceStats(matRefs, model);
  const TraceStats codeStats = computeTraceStats(codeRefs, model);
  EXPECT_GT(codeStats.meanCenterDrift, matStats.meanCenterDrift);
}

TEST(WorkloadStats, StreamOutput) {
  const Grid g(2, 2);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::whole(1), g);
  std::ostringstream os;
  os << computeTraceStats(refs, model);
  EXPECT_NE(os.str().find("drift="), std::string::npos);
}

}  // namespace
}  // namespace pimsched
