#include "trace/windowed_refs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_util.hpp"

namespace pimsched {
namespace {

WindowedRefs makeRefs(const Grid& grid) {
  ReferenceTrace t(DataSpace::singleSquare(2));  // 4 data
  // datum 0: referenced in steps 0,1 (window 0) and step 2 (window 1)
  t.add(0, 1, 0, 2);
  t.add(1, 1, 0, 3);
  t.add(1, 2, 0, 1);
  t.add(2, 3, 0, 4);
  // datum 3: only step 3 (window 1)
  t.add(3, 0, 3, 1);
  t.finalize();
  return WindowedRefs(t, WindowPartition::fixedSize(4, 2), grid);
}

TEST(WindowedRefs, AggregatesPerWindowPerProc) {
  const Grid grid(2, 2);
  const WindowedRefs refs = makeRefs(grid);
  EXPECT_EQ(refs.numData(), 4);
  EXPECT_EQ(refs.numWindows(), 2);
  EXPECT_EQ(refs.numProcs(), 4);

  const auto w0 = refs.refs(0, 0);
  ASSERT_EQ(w0.size(), 2u);
  EXPECT_EQ(w0[0], (ProcWeight{1, 5}));  // steps 0+1 on proc 1 merged
  EXPECT_EQ(w0[1], (ProcWeight{2, 1}));

  const auto w1 = refs.refs(0, 1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0], (ProcWeight{3, 4}));
}

TEST(WindowedRefs, UnreferencedDataHaveEmptyStrings) {
  const Grid grid(2, 2);
  const WindowedRefs refs = makeRefs(grid);
  EXPECT_TRUE(refs.refs(1, 0).empty());
  EXPECT_TRUE(refs.refs(1, 1).empty());
  EXPECT_TRUE(refs.unreferenced(1));
  EXPECT_FALSE(refs.unreferenced(0));
}

TEST(WindowedRefs, WeightAccounting) {
  const Grid grid(2, 2);
  const WindowedRefs refs = makeRefs(grid);
  EXPECT_EQ(refs.windowWeight(0, 0), 6);
  EXPECT_EQ(refs.windowWeight(0, 1), 4);
  EXPECT_EQ(refs.dataWeight(0), 10);
  EXPECT_EQ(refs.dataWeight(3), 1);
}

TEST(WindowedRefs, MergedRefsSumAcrossWindows) {
  const Grid grid(2, 2);
  const WindowedRefs refs = makeRefs(grid);
  const auto merged = refs.mergedRefs(0, 0, 2);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (ProcWeight{1, 5}));
  EXPECT_EQ(merged[1], (ProcWeight{2, 1}));
  EXPECT_EQ(merged[2], (ProcWeight{3, 4}));
}

TEST(WindowedRefs, MergedRefsSingleWindowEqualsRefs) {
  const Grid grid(3, 3);
  testutil::Rng rng(7);
  const ReferenceTrace t = testutil::randomTrace(rng, grid, 4, 4, 12, 20);
  const WindowedRefs refs(t, WindowPartition::fixedSize(12, 3), grid);
  for (DataId d = 0; d < refs.numData(); ++d) {
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      const auto merged = refs.mergedRefs(d, w, w + 1);
      const auto direct = refs.refs(d, w);
      ASSERT_EQ(merged.size(), direct.size());
      for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i], direct[i]);
      }
    }
  }
}

TEST(WindowedRefs, TotalWeightConserved) {
  const Grid grid(4, 4);
  testutil::Rng rng(11);
  const ReferenceTrace t = testutil::randomTrace(rng, grid, 6, 6, 20, 30);
  const WindowedRefs refs(t, WindowPartition::evenCount(20, 5), grid);
  Cost sum = 0;
  for (DataId d = 0; d < refs.numData(); ++d) sum += refs.dataWeight(d);
  EXPECT_EQ(sum, t.totalWeight());
}

TEST(WindowedRefs, RejectsMismatchedInputs) {
  const Grid grid(2, 2);
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 1);
  EXPECT_THROW(
      WindowedRefs(t, WindowPartition::whole(1), grid),
      std::invalid_argument);  // not finalized
  t.finalize();
  EXPECT_THROW(WindowedRefs(t, WindowPartition::whole(2), grid),
               std::invalid_argument);  // wrong step count
}

TEST(WindowedRefs, RejectsProcOutsideGrid) {
  const Grid grid(1, 2);
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 5, 0, 1);
  t.finalize();
  EXPECT_THROW(WindowedRefs(t, WindowPartition::whole(1), grid),
               std::invalid_argument);
}

TEST(WindowedRefs, MergedRefsRejectsBadRange) {
  const Grid grid(2, 2);
  const WindowedRefs refs = makeRefs(grid);
  EXPECT_THROW(refs.mergedRefs(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(refs.mergedRefs(0, 0, 3), std::invalid_argument);
}

TEST(WindowedRefs, RefsSignatureAgreesWithSameRefs) {
  // Two data with identical per-window reference strings must share a
  // signature and compare equal; the dedup layer in GOMCDS relies on both.
  const Grid grid(2, 2);
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 3);
  t.add(0, 0, 1, 3);  // datum 1 mirrors datum 0 in every window
  t.add(1, 2, 0, 1);
  t.add(1, 2, 1, 1);
  t.add(1, 3, 2, 5);  // datum 2 differs
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::evenCount(2, 2), grid);
  EXPECT_EQ(refs.refsSignature(0), refs.refsSignature(1));
  EXPECT_TRUE(refs.sameRefs(0, 1));
  EXPECT_TRUE(refs.sameRefs(0, 0));
  EXPECT_FALSE(refs.sameRefs(0, 2));
  EXPECT_NE(refs.refsSignature(0), refs.refsSignature(2));
}

// refsSignature and the incremental solver's suffix signatures share one
// FNV-1a row mixer (rowHashMixPairs); these values are the ones each
// signature produced before they did, and must not drift.
TEST(WindowedRefs, RefsSignaturePinnedValuesOfAFixedRow) {
  const Grid g(2, 2);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 1, 0, 2);
  t.add(0, 3, 0, 4);
  t.add(1, 0, 0, 7);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(2), g);
  ASSERT_EQ(refs.refs(0, 0).size(), 2u);
  EXPECT_EQ(refs.refsSignature(0), 8797196649123024387ull);
  EXPECT_EQ(refs.refsSignature(0, 0), 7546405253402489509ull);
  EXPECT_EQ(refs.refsSignature(0, 1), 1052585123780953765ull);
}

TEST(WindowedRefs, RefsSignatureSeparatesWeightAndProcessor) {
  // Same processors with different weights, and same weights on different
  // processors, must both change the signature (FNV mixes each field).
  const Grid grid(1, 4);
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 1, 0, 2);
  t.add(0, 1, 1, 7);  // weight differs from datum 0
  t.add(0, 2, 2, 2);  // processor differs from datum 0
  t.add(0, 1, 3, 2);  // identical to datum 0
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::whole(1), grid);
  EXPECT_FALSE(refs.sameRefs(0, 1));
  EXPECT_FALSE(refs.sameRefs(0, 2));
  EXPECT_TRUE(refs.sameRefs(0, 3));
  EXPECT_NE(refs.refsSignature(0), refs.refsSignature(1));
  EXPECT_NE(refs.refsSignature(0), refs.refsSignature(2));
  EXPECT_EQ(refs.refsSignature(0), refs.refsSignature(3));
}

// ------------------------------------------- sort-based oracle --

/// WindowedRefs contents as plain per-cell vectors.
struct OracleRefs {
  int numWindows = 0;
  std::vector<std::vector<ProcWeight>> cells;  ///< index d * numWindows + w
  std::vector<Cost> dataWeight;
};

/// The comparison-sort build WindowedRefs used before its counting sort,
/// frozen as the differential oracle: tag every access with its window
/// (binary search), sort the tagged copy by (datum, window, proc), and
/// merge each run of equal processors.
OracleRefs sortBasedRefs(const ReferenceTrace& trace,
                         const WindowPartition& windows) {
  struct Tagged {
    DataId data;
    WindowId window;
    ProcId proc;
    Cost weight;
  };
  std::vector<Tagged> tagged;
  for (const Access& a : trace.accesses()) {
    tagged.push_back(Tagged{a.data, windows.windowOf(a.step), a.proc,
                            a.weight});
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const Tagged& a, const Tagged& b) {
              if (a.data != b.data) return a.data < b.data;
              if (a.window != b.window) return a.window < b.window;
              return a.proc < b.proc;
            });
  OracleRefs out;
  out.numWindows = windows.numWindows();
  out.cells.resize(static_cast<std::size_t>(trace.numData()) *
                   static_cast<std::size_t>(out.numWindows));
  out.dataWeight.assign(static_cast<std::size_t>(trace.numData()), 0);
  for (const Tagged& t : tagged) {
    std::vector<ProcWeight>& cell =
        out.cells[static_cast<std::size_t>(t.data) *
                      static_cast<std::size_t>(out.numWindows) +
                  static_cast<std::size_t>(t.window)];
    if (!cell.empty() && cell.back().proc == t.proc) {
      cell.back().weight += t.weight;
    } else {
      cell.push_back(ProcWeight{t.proc, t.weight});
    }
    out.dataWeight[static_cast<std::size_t>(t.data)] += t.weight;
  }
  return out;
}

/// The oracle with every reference issued by a masked processor dropped.
OracleRefs maskedOracle(OracleRefs oracle, const std::vector<char>& dead) {
  std::fill(oracle.dataWeight.begin(), oracle.dataWeight.end(), 0);
  for (std::size_t c = 0; c < oracle.cells.size(); ++c) {
    std::erase_if(oracle.cells[c], [&](const ProcWeight& pw) {
      return dead[static_cast<std::size_t>(pw.proc)] != 0;
    });
    for (const ProcWeight& pw : oracle.cells[c]) {
      oracle.dataWeight[c / static_cast<std::size_t>(oracle.numWindows)] +=
          pw.weight;
    }
  }
  return oracle;
}

void expectMatchesOracle(const WindowedRefs& refs, const OracleRefs& oracle) {
  ASSERT_EQ(static_cast<std::size_t>(refs.numData()),
            oracle.dataWeight.size());
  ASSERT_EQ(refs.numWindows(), oracle.numWindows);
  for (DataId d = 0; d < refs.numData(); ++d) {
    EXPECT_EQ(refs.dataWeight(d),
              oracle.dataWeight[static_cast<std::size_t>(d)])
        << "datum " << d;
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      const std::span<const ProcWeight> got = refs.refs(d, w);
      const std::vector<ProcWeight>& want =
          oracle.cells[static_cast<std::size_t>(d) *
                           static_cast<std::size_t>(oracle.numWindows) +
                       static_cast<std::size_t>(w)];
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "datum " << d << " window " << w;
    }
  }
}

/// The partitions a trace of numSteps steps is checked under: one window
/// per step, one window for everything, fixed-size and near-even windows,
/// and uneven explicit starts.
std::vector<WindowPartition> partitionsFor(testutil::Rng& rng,
                                           StepId numSteps) {
  std::vector<WindowPartition> out{
      WindowPartition::perStep(numSteps), WindowPartition::whole(numSteps),
      WindowPartition::fixedSize(numSteps,
                                 static_cast<StepId>(rng.range(2, 5))),
      WindowPartition::evenCount(numSteps, static_cast<int>(rng.range(2, 6)))};
  std::vector<StepId> starts{0};
  for (StepId s = 1; s < numSteps; ++s) {
    if (rng.below(3) == 0) starts.push_back(s);
  }
  out.emplace_back(std::move(starts), numSteps);
  return out;
}

/// A random finalized trace over a dataRows x dataCols array that leaves
/// about a third of its steps without any access (the last step always has
/// one, so numSteps is as asked) and most data unreferenced.
ReferenceTrace sparseTrace(testutil::Rng& rng, const Grid& grid, int dataRows,
                           int dataCols, StepId numSteps) {
  DataSpace ds;
  ds.addArray("A", dataRows, dataCols);
  ReferenceTrace trace(ds);
  const DataId hot = std::max<DataId>(1, ds.numData() / 4);
  for (StepId s = 0; s < numSteps; ++s) {
    if (s + 1 < numSteps && rng.below(3) == 0) continue;
    const int count = static_cast<int>(rng.range(1, 6));
    for (int i = 0; i < count; ++i) {
      trace.add(s,
                static_cast<ProcId>(
                    rng.below(static_cast<std::uint64_t>(grid.size()))),
                static_cast<DataId>(rng.below(static_cast<std::uint64_t>(hot))),
                rng.range(1, 9));
    }
  }
  trace.finalize();
  return trace;
}

TEST(WindowedRefs, CountingSortMatchesSortBasedOracle) {
  testutil::Rng rng(2024);
  const Grid grids[] = {Grid(1, 2), Grid(2, 2), Grid(3, 3), Grid(2, 5),
                        Grid(4, 4)};
  for (int round = 0; round < 60; ++round) {
    const Grid& grid = grids[round % 5];
    const StepId numSteps = static_cast<StepId>(rng.range(1, 24));
    const int rows = static_cast<int>(rng.range(1, 8));
    const int cols = static_cast<int>(rng.range(1, 8));
    const ReferenceTrace trace =
        round % 2 == 0
            ? testutil::randomTrace(rng, grid, rows, cols, numSteps,
                                    static_cast<int>(rng.range(1, 30)))
            : sparseTrace(rng, grid, rows, cols, numSteps);
    for (const WindowPartition& windows : partitionsFor(rng, numSteps)) {
      SCOPED_TRACE("round " + std::to_string(round) + ", " +
                   std::to_string(windows.numWindows()) + " windows");
      expectMatchesOracle(WindowedRefs(trace, windows, grid),
                          sortBasedRefs(trace, windows));
    }
  }
}

TEST(WindowedRefs, MultiStepCellsOutOfProcOrderAreSortedAndMerged) {
  // Two processors and many steps per window: every cell sees the same
  // processor in several steps, and some list a later step's smaller
  // processor after an earlier step's larger one. Count those cells so
  // the test proves it reaches the per-cell sort.
  testutil::Rng rng(77);
  const Grid grid(1, 2);
  int unsortedCells = 0;
  for (int round = 0; round < 10; ++round) {
    const ReferenceTrace trace = testutil::randomTrace(rng, grid, 2, 3, 16, 6);
    const WindowPartition windows = WindowPartition::fixedSize(16, 4);
    for (DataId d = 0; d < trace.numData(); ++d) {
      for (WindowId w = 0; w < windows.numWindows(); ++w) {
        ProcId last = -1;
        for (const Access& a : trace.accesses()) {
          if (a.data != d || windows.windowOf(a.step) != w) continue;
          if (a.proc < last) {
            ++unsortedCells;
            break;
          }
          last = a.proc;
        }
      }
    }
    expectMatchesOracle(WindowedRefs(trace, windows, grid),
                        sortBasedRefs(trace, windows));
  }
  EXPECT_GT(unsortedCells, 0);
}

TEST(WindowedRefs, EmptyTraceUnderWholeZero) {
  const Grid grid(2, 2);
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.finalize();
  const WindowPartition windows = WindowPartition::whole(0);
  const WindowedRefs refs(t, windows, grid);
  EXPECT_EQ(refs.numData(), 4);
  EXPECT_EQ(refs.numWindows(), 0);
  for (DataId d = 0; d < refs.numData(); ++d) EXPECT_TRUE(refs.unreferenced(d));
  expectMatchesOracle(refs, sortBasedRefs(t, windows));
}

TEST(WindowedRefs, MaskedCopyMatchesMaskedOracle) {
  testutil::Rng rng(5);
  const Grid grid(3, 3);
  for (int round = 0; round < 10; ++round) {
    const ReferenceTrace trace = testutil::randomTrace(rng, grid, 4, 5, 12, 15);
    std::vector<char> dead(static_cast<std::size_t>(grid.size()), 0);
    for (char& p : dead) p = rng.below(3) == 0 ? 1 : 0;
    for (const WindowPartition& windows : partitionsFor(rng, 12)) {
      const WindowedRefs refs(trace, windows, grid);
      expectMatchesOracle(refs.withProcsMasked(dead),
                          maskedOracle(sortBasedRefs(trace, windows), dead));
    }
  }
}

}  // namespace
}  // namespace pimsched
