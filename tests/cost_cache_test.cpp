#include "cost/serve_tables.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <vector>

#include "cost/center_costs.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace pimsched {
namespace {

std::vector<ProcWeight> makeRefs(std::initializer_list<ProcWeight> pws) {
  return {pws};
}

/// A one-datum, one-window trace: the memo tests below look up arbitrary
/// strings, so the provider only needs some WindowedRefs to bind to.
WindowedRefs oneCellRefs(const Grid& g) {
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 1);
  t.finalize();
  return WindowedRefs(t, WindowPartition::perStep(1), g);
}

std::vector<Cost> tableOf(const Grid& g) {
  return std::vector<Cost>(static_cast<std::size_t>(g.size()));
}

// The CenterCostCache suite covers the provider's memo (the center-cost
// cache) on arbitrary strings; the ServeTables suite covers its rows.
TEST(CenterCostCache, MissComputesHitReuses) {
  const Grid g(4, 4);
  const CostModel model(g);
  const WindowedRefs refs = oneCellRefs(g);
  ServeTables tables(refs, model);
  const std::vector<ProcWeight> s = makeRefs({{0, 3}, {5, 1}, {12, 7}});

  std::vector<Cost> out = tableOf(g);
  EXPECT_FALSE(tables.costsInto(s, out));
  EXPECT_EQ(out, separableCenterCosts(model, s));

  std::vector<Cost> again = tableOf(g);
  EXPECT_TRUE(tables.costsInto(s, again));
  EXPECT_EQ(again, out);
}

TEST(CenterCostCache, DistinctStringsAreDistinctEntries) {
  const Grid g(4, 4);
  const CostModel model(g);
  const WindowedRefs refs = oneCellRefs(g);
  ServeTables tables(refs, model);

  // Same processors, different weights — and a permuted-weight variant
  // whose total weight matches: all must resolve to their own tables.
  const auto a = makeRefs({{1, 2}, {6, 4}});
  const auto b = makeRefs({{1, 4}, {6, 2}});
  const auto c = makeRefs({{1, 2}, {6, 4}, {9, 1}});
  std::vector<Cost> out = tableOf(g);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto* s : {&a, &b, &c}) {
      EXPECT_EQ(tables.costsInto(*s, out), pass == 1) << "pass " << pass;
      EXPECT_EQ(out, separableCenterCosts(model, *s));
    }
  }
}

TEST(CenterCostCache, CorrectUnderForcedHashCollisions) {
  const Grid g(4, 4);
  const CostModel model(g);
  const WindowedRefs refs = oneCellRefs(g);
  // hashMask 0 collapses every reference string onto hash 0: all entries
  // collide in one bucket and correctness rests entirely on the full-key
  // comparison.
  ServeTables tables(refs, model, /*hashMask=*/0);

  std::vector<std::vector<ProcWeight>> strings;
  for (ProcId p = 0; p < g.size(); ++p) {
    strings.push_back(makeRefs({{p, Cost{1} + p}}));
  }
  std::vector<Cost> out = tableOf(g);
  for (const auto& s : strings) {
    EXPECT_FALSE(tables.costsInto(s, out));
    EXPECT_EQ(out, separableCenterCosts(model, s)) << "insert pass";
  }
  for (const auto& s : strings) {
    EXPECT_TRUE(tables.costsInto(s, out));
    EXPECT_EQ(out, separableCenterCosts(model, s)) << "hit pass";
  }
}

TEST(CenterCostCache, NarrowMaskKeepsAdjacentHashesApart) {
  const Grid g(4, 4);
  const CostModel model(g);
  const WindowedRefs refs = oneCellRefs(g);
  // A 4-bit mask: plenty of distinct strings share a masked hash, while
  // others differ only in the low bits — "hash-adjacent" keys must still
  // round-trip to their own tables.
  ServeTables tables(refs, model, /*hashMask=*/0xF);
  std::vector<Cost> out = tableOf(g);
  for (Cost w = 1; w <= 64; ++w) {
    const auto s = makeRefs({{static_cast<ProcId>(w % g.size()), w}});
    EXPECT_FALSE(tables.costsInto(s, out)) << "w=" << w;
    EXPECT_EQ(out, separableCenterCosts(model, s)) << "w=" << w;
  }
}

TEST(CenterCostCache, ClearResetsEverything) {
  // The memo lives for one scheduling call: a fresh provider over the same
  // refs and model starts empty, whatever an earlier one stored.
  const Grid g(2, 2);
  const CostModel model(g);
  const WindowedRefs refs = oneCellRefs(g);
  std::vector<Cost> out = tableOf(g);
  {
    ServeTables first(refs, model);
    EXPECT_FALSE(first.costsInto(makeRefs({{0, 1}}), out));
    EXPECT_TRUE(first.costsInto(makeRefs({{0, 1}}), out));
  }
  ServeTables fresh(refs, model);
  EXPECT_FALSE(fresh.costsInto(makeRefs({{0, 1}}), out));
  EXPECT_TRUE(fresh.costsInto(makeRefs({{0, 1}}), out));
}

TEST(CenterCostCache, ThreadSafeUnderConcurrentMixedAccess) {
  const Grid g(4, 4);
  const CostModel model(g);
  const WindowedRefs refs = oneCellRefs(g);
  ServeTables tables(refs, model);

  // 8 distinct strings hammered from concurrent workers; every lookup must
  // return the correct table regardless of who inserted it first, and a
  // miss computes under its shard lock, so each string misses exactly once.
  std::vector<std::vector<ProcWeight>> strings;
  std::vector<std::vector<Cost>> expected;
  for (int k = 0; k < 8; ++k) {
    strings.push_back(makeRefs({{static_cast<ProcId>(k), Cost{k} + 1},
                                {static_cast<ProcId>(15 - k), 3}}));
    expected.push_back(separableCenterCosts(model, strings.back()));
  }
  std::atomic<int> hits{0};
  std::atomic<int> misses{0};
  parallelFor(512, 0, [&](std::int64_t i) {
    const std::size_t k = static_cast<std::size_t>(i) % strings.size();
    std::vector<Cost> out = tableOf(g);
    (tables.costsInto(strings[k], out) ? hits : misses).fetch_add(1);
    ASSERT_EQ(out, expected[k]);
  });
  EXPECT_EQ(misses.load(), static_cast<int>(strings.size()));
  EXPECT_EQ(hits.load() + misses.load(), 512);
}

TEST(ReferenceStringHash, SensitiveToOrderProcAndWeight) {
  const auto a = makeRefs({{1, 2}, {3, 4}});
  const auto b = makeRefs({{3, 4}, {1, 2}});
  const auto c = makeRefs({{1, 4}, {3, 2}});
  const auto d = makeRefs({{1, 2}, {3, 4}, {5, 0}});
  EXPECT_NE(referenceStringHash(a), referenceStringHash(b));
  EXPECT_NE(referenceStringHash(a), referenceStringHash(c));
  EXPECT_NE(referenceStringHash(a), referenceStringHash(d));
  EXPECT_EQ(referenceStringHash(a), referenceStringHash(makeRefs({{1, 2}, {3, 4}})));
}

// referenceStringHash, refsSignature and the incremental solver's suffix
// signatures share one FNV-1a row mixer; these values are the ones each
// hash produced before they did, and must not drift.
TEST(ReferenceStringHash, PinnedValuesOfAFixedRow) {
  const Grid g(2, 2);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 1, 0, 2);
  t.add(0, 3, 0, 4);
  t.add(1, 0, 0, 7);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(2), g);
  ASSERT_EQ(refs.refs(0, 0).size(), 2u);
  EXPECT_EQ(referenceStringHash(refs.refs(0, 0)), 3267660305032012039ull);
  EXPECT_EQ(referenceStringHash(refs.refs(0, 1)), 13986190503211726436ull);
  EXPECT_EQ(refs.refsSignature(0), 8797196649123024387ull);
  EXPECT_EQ(refs.refsSignature(0, 0), 7546405253402489509ull);
  EXPECT_EQ(refs.refsSignature(0, 1), 1052585123780953765ull);
}

/// Every row and every whole-datum table of `refs` equals the literal
/// per-center evaluation of Algorithm 1, and empty cells are covered.
void expectTablesMatchBruteForce(const WindowedRefs& refs,
                                 const CostModel& model) {
  ServeTables tables(refs, model);
  const std::size_t P = static_cast<std::size_t>(refs.numProcs());
  std::vector<Cost> row(P);
  CostBuffer datum;
  int emptyCells = 0;
  for (DataId d = 0; d < refs.numData(); ++d) {
    tables.datumInto(d, datum);
    ASSERT_EQ(datum.size(), static_cast<std::size_t>(refs.numWindows()) * P);
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      emptyCells += refs.refs(d, w).empty() ? 1 : 0;
      const std::vector<Cost> expected =
          bruteForceCenterCosts(model, refs.refs(d, w));
      tables.rowInto(d, w, row);
      EXPECT_EQ(row, expected) << "d=" << d << " w=" << w;
      const Cost* inDatum = datum.data() + static_cast<std::size_t>(w) * P;
      EXPECT_EQ(std::vector<Cost>(inDatum, inDatum + P), expected)
          << "d=" << d << " w=" << w;
    }
  }
  EXPECT_GT(emptyCells, 0);
}

TEST(ServeTables, RowsMatchBruteForceOnHealthyMesh) {
  const Grid g(4, 5);
  const CostModel model(g);
  testutil::Rng rng(1801);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 6);
  expectTablesMatchBruteForce(
      WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), 6), g),
      model);
}

TEST(ServeTables, RowsMatchBruteForceOnFaultedMesh) {
  // Dead centers price kInfiniteCost, and so does every center a dead link
  // detours: the rows must agree with the per-center reading exactly.
  const Grid g(4, 4);
  FaultMap faults(g);
  faults.killProc(5);
  faults.killProc(10);
  faults.killLink(0, 1);
  faults.killLink(14, 15);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  testutil::Rng rng(1802);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 12, 6);
  expectTablesMatchBruteForce(
      WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), 6), g)
          .withProcsMasked(faults.deadProcMask()),
      model);
}

TEST(ServeTables, UnreachableReferencingProcessorGivesInfiniteRow) {
  // 1x4 with processor 1 dead: processor 0 is alive but cut off from 2
  // and 3, so a window read by both 0 and 3 has no finite center, and a
  // window read by 0 alone is finite only at 0.
  const Grid g(1, 4);
  FaultMap faults(g);
  faults.killProc(1);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 2);
  t.add(0, 3, 0, 1);
  t.add(1, 0, 0, 1);
  t.add(3, 3, 0, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::perStep(4), g);
  ASSERT_TRUE(refs.refs(0, 2).empty());
  expectTablesMatchBruteForce(refs, model);

  ServeTables tables(refs, model);
  std::vector<Cost> row(4);
  tables.rowInto(0, 0, row);
  EXPECT_EQ(row, std::vector<Cost>(4, kInfiniteCost));
  tables.rowInto(0, 1, row);
  EXPECT_EQ(row, (std::vector<Cost>{0, kInfiniteCost, kInfiniteCost,
                                    kInfiniteCost}));
  tables.rowInto(0, 2, row);  // unreferenced: only the dead center is barred
  EXPECT_EQ(row, (std::vector<Cost>{0, kInfiniteCost, 0, 0}));
}

}  // namespace
}  // namespace pimsched
