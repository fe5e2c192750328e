#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/gomcds_detail.hpp"
#include "core/pipeline.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "fault/fault_trace.hpp"
#include "gomcds_reference.hpp"
#include "graph/layered_dag.hpp"
#include "graph/mesh_links.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

/// IncrementalSolver::solve retains its refs through a shared pointer.
std::shared_ptr<const WindowedRefs> shared(WindowedRefs refs) {
  return std::make_shared<const WindowedRefs>(std::move(refs));
}

void expectSameSchedule(const DataSchedule& a, const DataSchedule& b) {
  ASSERT_EQ(a.numData(), b.numData());
  ASSERT_EQ(a.numWindows(), b.numWindows());
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w))
          << "datum " << d << " window " << w;
    }
  }
}

/// One access per (window, ref): steps == windows, so mutating the entry
/// list of step w changes exactly window w's reference strings.
struct StreamWorkload {
  struct Entry {
    ProcId proc;
    DataId data;
    Cost weight;
  };

  StreamWorkload(testutil::Rng& rng, const Grid& grid, DataId numData,
                 int numWindows, int refsPerWindow)
      : numData_(numData), grid_(&grid) {
    steps_.resize(static_cast<std::size_t>(numWindows));
    for (auto& step : steps_) step = randomStep(rng, refsPerWindow);
  }

  std::vector<Entry> randomStep(testutil::Rng& rng, int refsPerWindow) {
    std::vector<Entry> out;
    for (int i = 0; i < refsPerWindow; ++i) {
      out.push_back(Entry{
          static_cast<ProcId>(rng.below(
              static_cast<std::uint64_t>(grid_->size()))),
          static_cast<DataId>(rng.below(static_cast<std::uint64_t>(numData_))),
          static_cast<Cost>(rng.range(1, 5))});
    }
    return out;
  }

  /// Replaces the last `suffix` windows with fresh random references.
  void churnTail(testutil::Rng& rng, int suffix, int refsPerWindow) {
    for (std::size_t w = steps_.size() - static_cast<std::size_t>(suffix);
         w < steps_.size(); ++w) {
      steps_[w] = randomStep(rng, refsPerWindow);
    }
  }

  [[nodiscard]] ReferenceTrace trace() const {
    // numData_ data in one square-ish array (ids just need to cover range).
    int side = 1;
    while (side * side < numData_) ++side;
    ReferenceTrace t(DataSpace::singleSquare(side, "A"));
    for (std::size_t w = 0; w < steps_.size(); ++w) {
      for (const Entry& e : steps_[w]) {
        t.add(static_cast<StepId>(w), e.proc, e.data, e.weight);
      }
    }
    // Touch every datum once so numData is stable across revisions.
    for (DataId d = 0; d < numData_; ++d) t.add(0, 0, d, 1);
    t.finalize();
    return t;
  }

  [[nodiscard]] WindowedRefs refs(const Grid& grid) const {
    const ReferenceTrace t = trace();
    return WindowedRefs(
        t, WindowPartition::evenCount(t.numSteps(),
                                      static_cast<int>(steps_.size())),
        grid);
  }

  DataId numData_;
  const Grid* grid_;
  std::vector<std::vector<Entry>> steps_;
};

TEST(Incremental, BitIdenticalToColdOnEveryPrefixHealthy) {
  const Grid g(6, 6);
  const CostModel model(g);
  testutil::Rng rng(901);
  StreamWorkload work(rng, g, 20, 8, 40);
  IncrementalSolver solver;
  for (int stream = 0; stream < 6; ++stream) {
    const WindowedRefs refs = work.refs(g);
    const DataSchedule warm = solver.solve(shared(refs), model);
    const DataSchedule cold = scheduleGomcds(refs, model);
    expectSameSchedule(warm, cold);
    if (stream > 0) {
      EXPECT_FALSE(solver.lastStats().cold) << "stream step " << stream;
      EXPECT_GT(solver.lastStats().reusedLayers, 0);
    }
    work.churnTail(rng, 2, 40);
  }
}

// On a healthy mesh a changed class is re-solved whole by the separable
// solve: every warm step still matches a cold solve and the mesh engine's
// cold solve (an empty-fault DistanceMap), every class counts W reused or
// W relaxed layers, and the retained state is the paths alone.
TEST(Incremental, HealthyWarmMatchesColdOnEveryStepAndKeepsOnlyPaths) {
  for (const auto& [rows, cols] : {std::pair{7, 5}, {1, 9}}) {
    const Grid g(rows, cols);
    const FaultMap noFaults(g);
    const DistanceMap distances(g, noFaults);
    const CostModel model(g);
    const CostModel mesh(g, distances);
    testutil::Rng rng(908);
    const int W = 6;
    StreamWorkload work(rng, g, 24, W, 20);
    IncrementalSolver solver;
    for (int step = 0; step < 6; ++step) {
      const WindowedRefs refs = work.refs(g);
      const DataSchedule warm = solver.solve(shared(refs), model);
      expectSameSchedule(warm, scheduleGomcds(refs, model));
      expectSameSchedule(warm, scheduleGomcds(refs, mesh));
      const IncrementalSolver::Stats& stats = solver.lastStats();
      EXPECT_EQ(stats.cold, step == 0);
      EXPECT_EQ(stats.reusedLayers % W, 0) << "step " << step;
      EXPECT_EQ(stats.relaxedLayers % W, 0) << "step " << step;
      EXPECT_GT(solver.retainedBytes(), 0u);
      EXPECT_LE(solver.retainedBytes(),
                static_cast<std::size_t>(refs.numData()) * W * sizeof(int))
          << "step " << step;
      work.churnTail(rng, 1 + step % 2, 20);
    }
  }
}

TEST(Incremental, BitIdenticalWithStableFaults) {
  const Grid g(5, 5);
  FaultMap faults(g);
  faults.killProc(7);
  faults.killProc(12);
  faults.killLink(2, 3);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  testutil::Rng rng(902);
  StreamWorkload work(rng, g, 12, 6, 30);
  IncrementalSolver solver;
  for (int stream = 0; stream < 5; ++stream) {
    const WindowedRefs refs =
        work.refs(g).withProcsMasked(faults.deadProcMask());
    const DataSchedule warm = solver.solve(shared(refs), model);
    const DataSchedule cold = scheduleGomcds(refs, model);
    expectSameSchedule(warm, cold);
    if (stream > 0) {
      EXPECT_FALSE(solver.lastStats().cold);
    }
    work.churnTail(rng, 1, 30);
  }
}

// A faulted stream with one-way dead links on a larger grid: every warm
// solve resumes through the mesh-sweep kernel and must match a cold solve
// and the literal dense cost-graph reference.
TEST(Incremental, FaultedStreamWarmMatchesColdAndDenseOracle) {
  const Grid g(7, 6);
  FaultMap faults(g);
  faults.killProc(9);
  faults.killProc(26);
  faults.killLink(2, 3);   // one-way: 3 -> 2 stays alive
  faults.killLink(20, 14);
  faults.killLink(31, 32);
  const DistanceMap distances(g, faults);
  ASSERT_FALSE(distances.partitioned());
  const CostModel model(g, distances);
  testutil::Rng rng(903);
  StreamWorkload work(rng, g, 20, 6, 40);
  IncrementalSolver solver;
  for (int stream = 0; stream < 6; ++stream) {
    const WindowedRefs refs =
        work.refs(g).withProcsMasked(faults.deadProcMask());
    const DataSchedule warm = solver.solve(shared(refs), model);
    expectSameSchedule(warm, scheduleGomcds(refs, model));
    expectSameSchedule(warm, testutil::referenceGomcds(refs, model));
    if (stream > 0) {
      EXPECT_FALSE(solver.lastStats().cold);
      EXPECT_GT(solver.lastStats().reusedLayers, 0);
    }
    work.churnTail(rng, 1 + stream % 3, 40);
  }
}

// An alive processor with a fault capacity limit makes the forbidden set
// grow while data are placed, even at unlimited options.capacity: every
// step of the stream must cold-fall and still match the reference.
TEST(Incremental, FaultCapacityLimitColdFallsAndMatchesReference) {
  const Grid g(4, 4);
  FaultMap faults(g);
  faults.killProc(5);
  faults.limitCapacity(10, 1);
  const DistanceMap distances(g, faults);
  ASSERT_FALSE(distances.partitioned());
  const CostModel model(g, distances);
  testutil::Rng rng(913);
  StreamWorkload work(rng, g, 12, 5, 30);
  IncrementalSolver solver;
  for (int stream = 0; stream < 4; ++stream) {
    const WindowedRefs refs =
        work.refs(g).withProcsMasked(faults.deadProcMask());
    expectSameSchedule(solver.solve(shared(refs), model),
                       testutil::referenceGomcds(refs, model));
    EXPECT_TRUE(solver.lastStats().cold) << "step " << stream;
    EXPECT_EQ(solver.retainedBytes(), 0u);
    work.churnTail(rng, 2, 30);
  }
}

TEST(Incremental, BitIdenticalWithDedupOffAndWeightOrder) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(903);
  StreamWorkload work(rng, g, 10, 5, 25);
  SchedulerOptions options;
  options.order = DataOrder::kByWeightDesc;
  IncrementalSolver solver;
  for (int stream = 0; stream < 4; ++stream) {
    const WindowedRefs refs = work.refs(g);
    expectSameSchedule(solver.solve(shared(refs), model, options),
                       testutil::referenceGomcds(refs, model, options));
    work.churnTail(rng, 2, 25);
  }
}

TEST(Incremental, CapacityConstrainedColdFallsButMatches) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(904);
  StreamWorkload work(rng, g, 12, 4, 30);
  SchedulerOptions options;
  options.capacity = 3;
  IncrementalSolver solver;
  for (int stream = 0; stream < 3; ++stream) {
    const WindowedRefs refs = work.refs(g);
    expectSameSchedule(solver.solve(shared(refs), model, options),
                       scheduleGomcds(refs, model, options));
    EXPECT_TRUE(solver.lastStats().cold);
    work.churnTail(rng, 1, 30);
  }
}

TEST(Incremental, ModelChangeForcesColdAndStaysIdentical) {
  const Grid g(4, 4);
  testutil::Rng rng(905);
  StreamWorkload work(rng, g, 8, 5, 20);
  IncrementalSolver solver;
  const WindowedRefs refs = work.refs(g);
  (void)solver.solve(shared(refs), CostModel(g));
  CostParams heavy;
  heavy.moveVolume = 7;
  const CostModel model2(g, heavy);
  const DataSchedule warm = solver.solve(shared(refs), model2);
  EXPECT_TRUE(solver.lastStats().cold);
  expectSameSchedule(warm, scheduleGomcds(refs, model2));
}

TEST(Incremental, FaultContentChangeIsDetectedWithoutInvalidate) {
  // Same shapes, same object layout — only the fault content differs. The
  // solver's fingerprint alone must catch it.
  const Grid g(4, 4);
  testutil::Rng rng(906);
  StreamWorkload work(rng, g, 8, 5, 20);
  FaultMap faults(g);
  const WindowedRefs base = work.refs(g);
  IncrementalSolver solver;
  {
    const DistanceMap d1(g, faults);
    const CostModel m1(g, d1);
    (void)solver.solve(
        shared(base.withProcsMasked(faults.deadProcMask())), m1);
  }
  faults.killProc(5);
  const DistanceMap d2(g, faults);
  const CostModel m2(g, d2);
  const WindowedRefs masked = base.withProcsMasked(faults.deadProcMask());
  const DataSchedule warm = solver.solve(shared(masked), m2);
  EXPECT_TRUE(solver.lastStats().cold);
  expectSameSchedule(warm, scheduleGomcds(masked, m2));
}

// A capacity-bound solve cold-falls and drops the retained state, so the
// next unlimited solve starts cold.
TEST(Incremental, InvalidateDropsRetainedState) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(907);
  StreamWorkload work(rng, g, 6, 4, 15);
  IncrementalSolver solver;
  const WindowedRefs refs = work.refs(g);
  (void)solver.solve(shared(refs), model);
  EXPECT_GT(solver.retainedBytes(), 0u);
  SchedulerOptions capped;
  capped.capacity = 3;
  expectSameSchedule(solver.solve(shared(refs), model, capped),
                     scheduleGomcds(refs, model, capped));
  EXPECT_TRUE(solver.lastStats().cold);
  EXPECT_EQ(solver.retainedBytes(), 0u);
  const DataSchedule after = solver.solve(shared(refs), model);
  EXPECT_TRUE(solver.lastStats().cold);
  expectSameSchedule(after, scheduleGomcds(refs, model));
}

TEST(Incremental, ClassSplitAndReconvergeStayIdentical) {
  const Grid g(4, 4);
  const CostModel model(g);
  const int W = 4;
  // Data 0 and 1 share identical reference strings; datum 1's tail diverges
  // on step 1 (the retained class must split) and converges back on step 2
  // (warm classing is a refinement — split classes stay split until the
  // next cold solve, and the result must stay bit-identical regardless).
  // Data 2 and 3 are untouched ballast that keeps full-state sharing in play.
  auto makeRefs = [&](Cost datum1TailWeight) {
    ReferenceTrace t(DataSpace::singleSquare(2, "A"));
    for (DataId d : {0, 1}) {
      t.add(0, 3, d, 2);
      t.add(1, 7, d, 1);
      t.add(2, 9, d, 4);
    }
    t.add(3, 12, 0, 2);
    t.add(3, 12, 1, datum1TailWeight);
    t.add(0, 5, 2, 3);
    t.add(2, 6, 3, 2);
    t.add(3, 1, 3, 5);
    t.finalize();
    return WindowedRefs(t, WindowPartition::evenCount(W, W), g);
  };

  IncrementalSolver solver;
  int step = 0;
  for (Cost tail : {2, 6, 2}) {  // identical -> split -> reconverged
    const WindowedRefs refs = makeRefs(tail);
    const DataSchedule warm = solver.solve(shared(refs), model);
    const DataSchedule cold = scheduleGomcds(refs, model);
    expectSameSchedule(warm, cold);
    if (step > 0) {
      EXPECT_FALSE(solver.lastStats().cold) << "step " << step;
      EXPECT_GT(solver.lastStats().reusedLayers, 0) << "step " << step;
    }
    ++step;
  }
}

// Warm classing splits a group whose members churn differently: data 0-3
// share every reference string, then data 2 and 3 move their last window
// to the far corner while data 0 and 1 keep theirs. Each half must take
// its own path, as in a cold solve.
TEST(Incremental, WarmClassingSplitsAGroupThatDiverges) {
  const Grid g(4, 4);
  const CostModel model(g);
  const int W = 4;
  auto makeRefs = [&](bool diverge) {
    ReferenceTrace t(DataSpace::singleSquare(2, "A"));
    for (DataId d = 0; d < 4; ++d) {
      t.add(0, 0, d, 3);
      t.add(1, 1, d, 3);
      t.add(2, 4, d, 3);
      t.add(3, diverge && d >= 2 ? 15 : 0, d, 9);
    }
    t.finalize();
    return WindowedRefs(t, WindowPartition::evenCount(W, W), g);
  };
  IncrementalSolver solver;
  for (const bool diverge : {false, true}) {
    const WindowedRefs refs = makeRefs(diverge);
    const DataSchedule warm = solver.solve(shared(refs), model);
    expectSameSchedule(warm, scheduleGomcds(refs, model));
    EXPECT_EQ(solver.lastStats().cold, !diverge);
  }
}

// --- change detector ------------------------------------------------------

WindowedRefs twoWindowRefs(const Grid& g, Cost w0Weight, Cost w1Weight) {
  ReferenceTrace t(DataSpace::singleSquare(1, "A"));
  t.add(0, 1, 0, w0Weight);
  t.add(1, 2, 0, w1Weight);
  t.finalize();
  return WindowedRefs(t, WindowPartition::evenCount(2, 2), g);
}

TEST(IncrementalChangeDetector, FindsFirstChangedWindow) {
  const Grid g(2, 2);
  const WindowedRefs a = twoWindowRefs(g, 3, 4);
  const WindowedRefs sameAsA = twoWindowRefs(g, 3, 4);
  const WindowedRefs tailChanged = twoWindowRefs(g, 3, 9);
  const WindowedRefs headChanged = twoWindowRefs(g, 8, 4);
  EXPECT_EQ(firstChangedWindow(a, sameAsA, 0), 2);
  EXPECT_EQ(firstChangedWindow(tailChanged, a, 0), 1);
  EXPECT_EQ(firstChangedWindow(headChanged, a, 0), 0);
}

TEST(IncrementalChangeDetector, ShapeMismatchMeansEverythingChanged) {
  const Grid g(2, 2);
  const WindowedRefs a = twoWindowRefs(g, 3, 4);
  ReferenceTrace t(DataSpace::singleSquare(1, "A"));
  t.add(0, 1, 0, 3);
  t.add(1, 2, 0, 4);
  t.add(2, 2, 0, 1);
  t.finalize();
  const WindowedRefs threeWindows(
      t, WindowPartition::evenCount(3, 3), g);
  EXPECT_EQ(firstChangedWindow(a, threeWindows, 0), 0);
}

TEST(IncrementalChangeDetector, SignaturePathAgreesWithDirectComparison) {
  // The solver's internal detection is a direct per-window row comparison;
  // the public firstChangedWindow is the signature-prescreened reference
  // implementation. They must agree on arbitrary streams.
  const Grid g(4, 4);
  testutil::Rng rng(913);
  StreamWorkload work(rng, g, 12, 6, 30);
  const WindowedRefs prev = work.refs(g);
  work.churnTail(rng, 2, 30);
  const WindowedRefs now = work.refs(g);
  for (DataId d = 0; d < now.numData(); ++d) {
    int direct = now.numWindows();
    for (int w = 0; w < now.numWindows(); ++w) {
      if (!now.sameRefsAs(prev, d, w, d, w)) {
        direct = w;
        break;
      }
    }
    EXPECT_EQ(firstChangedWindow(now, prev, d), direct) << "datum " << d;
  }
}

// --- refsSignature collision regressions ----------------------------------
//
// Crafting two genuinely colliding 64-bit FNV-1a inputs is computationally
// infeasible (the byte-wise xor-multiply structure defeats algebraic
// inversion; a meet-in-the-middle search needs ~2^32 work and memory), so
// these tests drive the *production seams* — the exact code paths that run
// after a signature match — with forced-equal signatures and the real full
// comparators. A real collision would take precisely these branches.

TEST(SignatureCollision, EqualSignaturesDifferentRefsDoNotShareDedupClass) {
  const Grid g(2, 2);
  // Two data with different refs in window 1.
  ReferenceTrace t(DataSpace::singleSquare(2, "A"));
  t.add(0, 1, 0, 3);
  t.add(1, 2, 0, 4);
  t.add(0, 1, 1, 3);
  t.add(1, 2, 1, 5);
  t.add(0, 0, 2, 1);  // padding data so numData == 4
  t.add(0, 0, 3, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::evenCount(2, 2), g);
  ASSERT_FALSE(refs.sameRefs(0, 1));

  // Forced collision: every datum hashes to the same signature. The full
  // comparison must still keep data 0 and 1 apart.
  const detail::DedupClasses classes = detail::buildEquivalenceClasses(
      refs.numData(), [](DataId) { return std::uint64_t{42}; },
      [&](DataId rep, DataId d) { return refs.sameRefs(rep, d); });
  EXPECT_NE(classes.classOf[0], classes.classOf[1]);
  // Sanity: the padding data (identical refs) do merge through the same
  // forced-collision bucket.
  EXPECT_EQ(classes.classOf[2], classes.classOf[3]);
}

TEST(SignatureCollision, ChangeDetectorDetectsChangeOnSignatureMatch) {
  const Grid g(2, 2);
  const WindowedRefs now = twoWindowRefs(g, 3, 9);
  const WindowedRefs prev = twoWindowRefs(g, 3, 4);
  // Forced collision: the signature prescreen claims every window is
  // unchanged. The full compare must still flag window 1.
  const int first = detail::firstChangedWindowImpl(
      now.numWindows(), [](int) { return true; },
      [&](int w) { return now.sameRefsAs(prev, 0, w, 0, w); });
  EXPECT_EQ(first, 1);
}

TEST(SignatureCollision, ProductionSignaturesStillPrescreenCorrectly) {
  const Grid g(2, 2);
  const WindowedRefs a = twoWindowRefs(g, 3, 4);
  const WindowedRefs b = twoWindowRefs(g, 3, 9);
  EXPECT_EQ(a.refsSignature(0, 0), b.refsSignature(0, 0));
  EXPECT_NE(a.refsSignature(0, 1), b.refsSignature(0, 1));
  EXPECT_NE(a.refsSignature(0), b.refsSignature(0));
}

// --- resume-capable flat solvers ------------------------------------------

// The predecessor cache of the faulted-mesh resume, the one faulted
// streams run: cached or scanned, reconstruction picks the same path. A
// predecessor of layer w reads only dp row w - 1, so a resume from
// fromLayer keeps the cached entries of layer fromLayer.
TEST(ResumeSolver, ParentCacheReconstructionIsBitIdentical) {
  const Grid g(4, 4);
  FaultMap faults(g);
  faults.killProc(5);
  faults.killLink(10, 11);
  const DistanceMap distances(g, faults);
  const MeshLinks links(distances);
  const int W = 6;
  const int P = g.size();
  testutil::Rng rng(912);
  // A dead processor serves at kInfiniteCost, as in a serve table.
  const auto draw = [&](std::size_t i) {
    const auto p = static_cast<ProcId>(i % static_cast<std::size_t>(P));
    return faults.procAlive(p) ? rng.range(0, 30) : kInfiniteCost;
  };
  std::vector<Cost> costs(static_cast<std::size_t>(W * P));
  for (std::size_t i = 0; i < costs.size(); ++i) costs[i] = draw(i);

  LayeredDagScratch scratch;
  CostBuffer dp;
  LayeredPath path;
  LayeredParentCache parents;  // starts wrong-sized: wholesale reset path
  LayeredDagSolver::solveMeshFlatResumeInto(links, W, costs, 3, 0, dp, scratch,
                                            path, &parents);
  EXPECT_EQ(parents.size(), static_cast<std::size_t>(W * P));
  // from == W re-runs only reconstruction: every step walks cached entries.
  // The smaller fromLayer values invalidate and rebuild suffix entries.
  int keptEntries = 0;
  for (int from : {W, 4, 2, W, 1, 3}) {
    for (std::size_t i = static_cast<std::size_t>(from * P); i < costs.size();
         ++i) {
      costs[i] = draw(i);
    }
    // Row fromLayer's entries were scanned against dp row fromLayer - 1,
    // which the resume keeps, so every one of them must survive it.
    const auto row = static_cast<std::ptrdiff_t>(from * P);
    std::vector<std::int32_t> before;
    if (from < W) before.assign(parents.begin() + row, parents.begin() + row + P);
    LayeredDagSolver::solveMeshFlatResumeInto(links, W, costs, 3, from, dp,
                                              scratch, path, &parents);
    for (std::size_t p = 0; p < before.size(); ++p) {
      if (before[p] < 0) continue;
      ++keptEntries;
      EXPECT_EQ(parents[static_cast<std::size_t>(row) + p], before[p])
          << "fromLayer " << from << " node " << p;
    }
    LayeredDagScratch coldScratch;
    LayeredPath cold;
    LayeredDagSolver::solveMeshFlatInto(links, W, costs, 3, coldScratch, cold);
    ASSERT_TRUE(cold.feasible());
    ASSERT_EQ(path.total, cold.total) << "fromLayer " << from;
    ASSERT_EQ(path.nodes, cold.nodes) << "fromLayer " << from;
  }
  EXPECT_GT(keptEntries, 0);
}

// --- StreamSession --------------------------------------------------------

PipelineConfig streamConfig(int windows) {
  PipelineConfig config;
  config.numWindows = windows;
  config.capacity = PipelineConfig::kUnlimited;
  return config;
}

TEST(StreamSession, MatchesFreshExperimentOnEveryStep) {
  const Grid g(5, 5);
  testutil::Rng rng(911);
  StreamWorkload work(rng, g, 15, 6, 35);
  StreamSession session(5, 5, streamConfig(6));
  for (int stream = 0; stream < 5; ++stream) {
    const ReferenceTrace trace = work.trace();
    const StreamStepResult got = session.step(trace);
    const Experiment fresh(trace, session.grid(), streamConfig(6));
    expectSameSchedule(got.schedule, fresh.schedule(Method::kGomcds));
    EXPECT_EQ(got.eval.aggregate.total(),
              fresh.evaluate(Method::kGomcds).aggregate.total());
    if (stream > 0) {
      EXPECT_TRUE(got.incremental) << "stream step " << stream;
    }
    work.churnTail(rng, 2, 35);
  }
}

TEST(StreamSession, FaultedSessionMatchesFaultedExperiment) {
  const Grid g(4, 4);
  testutil::Rng rng(912);
  StreamWorkload work(rng, g, 10, 5, 25);
  const std::vector<std::string> specs{"proc:2", "proc:9"};
  StreamSession session(4, 4, streamConfig(5), Method::kGomcds, specs);
  FaultMap faults(g);
  ASSERT_TRUE(applyFaultSpec(faults, "proc:2"));
  ASSERT_TRUE(applyFaultSpec(faults, "proc:9"));
  for (int stream = 0; stream < 4; ++stream) {
    const ReferenceTrace trace = work.trace();
    const StreamStepResult got = session.step(trace);
    const Experiment fresh(trace, session.grid(), session.faults(),
                           streamConfig(5));
    expectSameSchedule(got.schedule, fresh.schedule(Method::kGomcds));
    work.churnTail(rng, 1, 25);
  }
}

// A healthy session retains its classes' paths — at most data x windows
// ints — where a faulted one keeps W x P serve and dp tables per class.
TEST(StreamSession, HealthySessionRetainsPathsNotTables) {
  const Grid g(8, 8);
  const int W = 6;
  const DataId numData = 36;  // a square: the trace's data space is 6 x 6
  testutil::Rng rng(916);
  StreamWorkload work(rng, g, numData, W, 40);
  StreamSession healthy(8, 8, streamConfig(W));
  StreamSession faulted(8, 8, streamConfig(W), Method::kGomcds, {"proc:5"});
  const std::size_t paths =
      static_cast<std::size_t>(numData) * W * sizeof(int);
  const std::size_t oneTable =
      static_cast<std::size_t>(W) * static_cast<std::size_t>(g.size()) *
      sizeof(Cost);
  for (int stream = 0; stream < 3; ++stream) {
    const ReferenceTrace trace = work.trace();
    (void)healthy.step(trace);
    (void)faulted.step(trace);
    EXPECT_GT(healthy.retainedBytes(), 0u);
    EXPECT_LE(healthy.retainedBytes(), paths) << "step " << stream;
    EXPECT_LT(healthy.retainedBytes(), oneTable);
    EXPECT_GE(faulted.retainedBytes(), 2 * oneTable) << "step " << stream;
    work.churnTail(rng, 2, 40);
  }
}

TEST(StreamSession, NonGomcdsMethodsAreSupportedButNeverWarm) {
  const Grid g(3, 3);
  testutil::Rng rng(915);
  StreamWorkload work(rng, g, 6, 4, 20);
  StreamSession session(3, 3, streamConfig(4), Method::kLomcds);
  for (int stream = 0; stream < 2; ++stream) {
    const ReferenceTrace trace = work.trace();
    const StreamStepResult got = session.step(trace);
    EXPECT_FALSE(got.incremental);
    const Experiment fresh(trace, session.grid(), streamConfig(4));
    expectSameSchedule(got.schedule, fresh.schedule(Method::kLomcds));
  }
}

}  // namespace
}  // namespace pimsched
