#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "kernels/benchmarks.hpp"
#include "pim/memory.hpp"

namespace pimsched {
namespace {

TEST(Experiment, ResolvesPaperCapacity) {
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kLu, g, 8);  // 64 data
  const Experiment exp(t, g);
  EXPECT_EQ(exp.capacity(), 8);  // 2 * ceil(64/16)
}

TEST(Experiment, UnlimitedCapacitySentinel) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  PipelineConfig cfg;
  cfg.capacity = PipelineConfig::kUnlimited;
  const Experiment exp(t, g, cfg);
  EXPECT_EQ(exp.capacity(), -1);
}

TEST(Experiment, RejectsBadCapacitySentinel) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  PipelineConfig cfg;
  cfg.capacity = -7;
  EXPECT_THROW(Experiment(t, g, cfg), std::invalid_argument);
}

TEST(Experiment, WindowCountHonoursConfig) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 16);
  PipelineConfig cfg;
  cfg.numWindows = 5;
  const Experiment exp(t, g, cfg);
  EXPECT_EQ(exp.refs().numWindows(), 5);
}

TEST(Experiment, AllMethodsProduceValidSchedules) {
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, 8);
  const Experiment exp(t, g);
  for (const Method m :
       {Method::kRowWise, Method::kColWise, Method::kBlock2D,
        Method::kCyclic2D, Method::kRandom, Method::kScds, Method::kLomcds,
        Method::kGomcds, Method::kGroupedLomcds, Method::kGroupedOptimal}) {
    const DataSchedule s = exp.schedule(m);
    EXPECT_TRUE(s.complete()) << toString(m);
    EXPECT_TRUE(s.respectsCapacity(g, exp.capacity())) << toString(m);
  }
}

// The paper's headline ordering on every benchmark: each proposed scheme
// beats the straight-forward distribution, and GOMCDS <= LOMCDS-with-
// grouping <= plain LOMCDS in total cost.
class PaperOrdering : public ::testing::TestWithParam<PaperBenchmark> {};

TEST_P(PaperOrdering, ProposedSchemesBeatStraightForward) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(GetParam(), g, 8);
  const Experiment exp(t, g);
  const Cost sf = exp.evaluate(Method::kRowWise).aggregate.total();
  const Cost scds = exp.evaluate(Method::kScds).aggregate.total();
  const Cost lomcds = exp.evaluate(Method::kLomcds).aggregate.total();
  const Cost gomcds = exp.evaluate(Method::kGomcds).aggregate.total();
  EXPECT_LT(scds, sf) << toString(GetParam());
  EXPECT_LT(gomcds, sf);
  EXPECT_LE(gomcds, lomcds);
  EXPECT_LE(gomcds, scds);
}

TEST_P(PaperOrdering, GroupingImprovesLomcds) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(GetParam(), g, 8);
  const Experiment exp(t, g);
  const Cost lomcds = exp.evaluate(Method::kLomcds).aggregate.total();
  const Cost grouped =
      exp.evaluate(Method::kGroupedLomcds).aggregate.total();
  const Cost gomcds = exp.evaluate(Method::kGomcds).aggregate.total();
  EXPECT_LE(grouped, lomcds) << toString(GetParam());
  EXPECT_LE(gomcds, grouped);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PaperOrdering,
                         ::testing::ValuesIn(allPaperBenchmarks()),
                         [](const auto& info) {
                           std::string n = toString(info.param);
                           for (char& c : n) {
                             if (c == ':' || c == '+' || c == '-') c = '_';
                           }
                           return n;
                         });

TEST(ImprovementPct, Formula) {
  EXPECT_DOUBLE_EQ(improvementPct(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(improvementPct(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(improvementPct(100, 120), -20.0);
  EXPECT_DOUBLE_EQ(improvementPct(0, 5), 0.0);
}

TEST(Experiment, RejectsEmptyTrace) {
  const Grid g(2, 2);
  ReferenceTrace empty(DataSpace::singleSquare(2));
  empty.finalize();
  EXPECT_THROW(Experiment(empty, g), std::invalid_argument);
}

TEST(Experiment, RejectsCostParamsPastTheChamferBound) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  PipelineConfig cfg;
  cfg.costParams.moveVolume = maxChamferBeta(g) + 1;
  EXPECT_THROW(Experiment(t, g, cfg), std::invalid_argument);
  const FaultMap faults(g);
  EXPECT_THROW(Experiment(t, g, faults, cfg), std::invalid_argument);
  cfg.costParams.moveVolume = maxChamferBeta(g);
  EXPECT_NO_THROW(Experiment(t, g, cfg));
}

/// A legal trace (its weights sum below INT64_MAX) whose serving costs
/// would overflow: one access of weight 2^62 plus two unit accesses.
ReferenceTrace heavyTrace() {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, Cost{1} << 62);
  t.add(0, 1, 1);
  t.add(1, 2, 2);
  t.finalize();
  return t;
}

TEST(Experiment, RejectsTraceWeightsWhoseCostsCouldOverflow) {
  const Grid g(4, 4);
  const ReferenceTrace t = heavyTrace();
  EXPECT_THROW(Experiment(t, g), std::invalid_argument);
  const FaultMap faults(g);
  EXPECT_THROW(Experiment(t, g, faults), std::invalid_argument);
  StreamSession session(4, 4);
  EXPECT_THROW((void)session.step(t), std::invalid_argument);

  // The bound is totalWeight * max(hopCost, 1) * (procs - 1) < kInfiniteCost.
  ReferenceTrace edge(DataSpace::singleSquare(2));
  edge.add(0, 0, 0, (kInfiniteCost - 1) / 15);
  edge.finalize();
  EXPECT_NO_THROW(Experiment(edge, g));
  PipelineConfig cfg;
  cfg.costParams.hopCost = 2;
  EXPECT_THROW(Experiment(edge, g, cfg), std::invalid_argument);
}

TEST(Experiment, ExplicitWindowsMustMatchTrace) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  PipelineConfig cfg;
  cfg.explicitWindows = WindowPartition::whole(t.numSteps() + 5);
  EXPECT_THROW(Experiment(t, g, cfg), std::invalid_argument);
}

TEST(Experiment, RandomAndColwiseBaselinesEvaluate) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  const Experiment exp(t, g);
  EXPECT_GT(exp.evaluate(Method::kRandom).aggregate.total(), 0);
  EXPECT_GT(exp.evaluate(Method::kColWise).aggregate.total(), 0);
  EXPECT_GT(exp.evaluate(Method::kCyclic2D).aggregate.total(), 0);
  EXPECT_GT(exp.evaluate(Method::kBlock2D).aggregate.total(), 0);
}

TEST(Experiment, EvaluateMatchesManualEvaluation) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  const Experiment exp(t, g);
  const DataSchedule s = exp.schedule(Method::kScds);
  const EvalResult manual = evaluateSchedule(s, exp.refs(), exp.costModel());
  const EvalResult viaExp = exp.evaluate(Method::kScds);
  EXPECT_EQ(manual.aggregate.total(), viaExp.aggregate.total());
}

}  // namespace
}  // namespace pimsched
