// Allocation accounting for the flat GOMCDS kernels: global operator
// new/delete are replaced with counting versions, and the tests assert the
// zero-alloc steady state the scratch-arena design promises — a warm
// solver call performs no heap allocations at all, and a scheduling call's
// allocation count depends on the number of equivalence classes, not the
// number of data.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/gomcds.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "graph/mesh_links.hpp"
#include "trace/trace.hpp"
#include "trace/windowed_refs.hpp"

namespace {

std::atomic<std::int64_t> g_newCalls{0};

void* countedAlloc(std::size_t size) {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pimsched {
namespace {

std::int64_t allocCount() {
  return g_newCalls.load(std::memory_order_relaxed);
}

TEST(GomcdsAlloc, WarmFlatSolveAllocatesNothing) {
  const Grid grid(4, 4);
  const int layers = 6;
  std::vector<Cost> nodeCosts(
      static_cast<std::size_t>(layers) * static_cast<std::size_t>(grid.size()));
  for (std::size_t i = 0; i < nodeCosts.size(); ++i) {
    nodeCosts[i] = static_cast<Cost>((i * 7) % 23);
  }
  LayeredDagScratch scratch;
  LayeredPath path;
  // First call grows the scratch buffers (and resolves the obs handles).
  LayeredDagSolver::solveManhattanFlatInto(grid, layers, nodeCosts, 2,
                                           scratch, path);
  const std::int64_t before = allocCount();
  for (int i = 0; i < 10; ++i) {
    LayeredDagSolver::solveManhattanFlatInto(grid, layers, nodeCosts, 2,
                                             scratch, path);
  }
  EXPECT_EQ(allocCount(), before)
      << "warm solveManhattanFlatInto must not touch the heap";

  std::vector<Cost> trans(static_cast<std::size_t>(grid.size()) *
                          static_cast<std::size_t>(grid.size()));
  for (std::size_t i = 0; i < trans.size(); ++i) {
    trans[i] = static_cast<Cost>(i % 5);
  }
  LayeredDagSolver::solveFlatInto(layers, grid.size(), nodeCosts, trans,
                                  scratch, path);
  const std::int64_t beforeTable = allocCount();
  for (int i = 0; i < 10; ++i) {
    LayeredDagSolver::solveFlatInto(layers, grid.size(), nodeCosts, trans,
                                    scratch, path);
  }
  EXPECT_EQ(allocCount(), beforeTable)
      << "warm solveFlatInto must not touch the heap";
}

/// A trace whose data all share one reference string per window, so the
/// dedup layer collapses everything into a single class.
WindowedRefs singleClassRefs(const Grid& grid, DataId numData, int windows,
                             ReferenceTrace& traceOut) {
  DataSpace ds;
  ds.addArray("A", 1, numData);
  ReferenceTrace t(ds);
  for (StepId s = 0; s < static_cast<StepId>(windows); ++s) {
    for (DataId d = 0; d < numData; ++d) {
      t.add(s, static_cast<ProcId>(s % grid.size()), d, 2);
    }
  }
  t.finalize();
  traceOut = std::move(t);
  return WindowedRefs(
      traceOut,
      WindowPartition::evenCount(static_cast<StepId>(windows), windows), grid);
}

TEST(GomcdsAlloc, ScheduleAllocationsIndependentOfDataCount) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const int windows = 4;
  ReferenceTrace smallTrace{DataSpace::singleSquare(1)};
  ReferenceTrace bigTrace{DataSpace::singleSquare(1)};
  const WindowedRefs smallRefs =
      singleClassRefs(grid, 8, windows, smallTrace);
  const WindowedRefs bigRefs = singleClassRefs(grid, 64, windows, bigTrace);

  // Warm run resolves metric handles and grows the per-thread scratch.
  (void)scheduleGomcds(smallRefs, model);

  const std::int64_t beforeSmall = allocCount();
  (void)scheduleGomcds(smallRefs, model);
  const std::int64_t smallAllocs = allocCount() - beforeSmall;

  const std::int64_t beforeBig = allocCount();
  (void)scheduleGomcds(bigRefs, model);
  const std::int64_t bigAllocs = allocCount() - beforeBig;

  // Both runs have one equivalence class; 56 extra data must not buy extra
  // allocations beyond noise (the steady-state loop is allocation-free).
  EXPECT_LE(bigAllocs, smallAllocs + 4)
      << "per-datum steady state is supposed to be allocation-free: "
      << smallAllocs << " allocations for 8 data vs " << bigAllocs
      << " for 64";
}

TEST(GomcdsAlloc, WarmFaultedMeshSolveAllocatesNothing) {
  const Grid grid(5, 6);
  FaultMap faults(grid);
  faults.killProc(7);
  faults.killLink(14, 15);
  faults.killLink(21, 15);
  const DistanceMap distances(grid, faults);
  const MeshLinks links(distances);
  const int layers = 6;
  std::vector<Cost> nodeCosts(
      static_cast<std::size_t>(layers) * static_cast<std::size_t>(grid.size()));
  for (std::size_t i = 0; i < nodeCosts.size(); ++i) {
    nodeCosts[i] = i % 11 == 0 ? kInfiniteCost : static_cast<Cost>((i * 7) % 23);
  }
  LayeredDagScratch scratch;
  LayeredPath path;
  LayeredDagSolver::solveMeshFlatInto(links, layers, nodeCosts, 2, scratch,
                                      path);
  const std::int64_t before = allocCount();
  for (int i = 0; i < 10; ++i) {
    LayeredDagSolver::solveMeshFlatInto(links, layers, nodeCosts, 2, scratch,
                                        path);
  }
  EXPECT_EQ(allocCount(), before)
      << "warm solveMeshFlatInto must not touch the heap";
}

TEST(GomcdsAlloc, FaultedScheduleAllocationsIndependentOfDataCount) {
  const Grid grid(4, 4);
  FaultMap faults(grid);
  faults.killProc(5);
  faults.killLink(9, 10);
  const DistanceMap distances(grid, faults);
  const CostModel model(grid, distances);
  const int windows = 4;
  ReferenceTrace smallTrace{DataSpace::singleSquare(1)};
  ReferenceTrace bigTrace{DataSpace::singleSquare(1)};
  const WindowedRefs smallRefs =
      singleClassRefs(grid, 8, windows, smallTrace);
  const WindowedRefs bigRefs = singleClassRefs(grid, 64, windows, bigTrace);

  (void)scheduleGomcds(smallRefs, model);

  const std::int64_t beforeSmall = allocCount();
  (void)scheduleGomcds(smallRefs, model);
  const std::int64_t smallAllocs = allocCount() - beforeSmall;

  const std::int64_t beforeBig = allocCount();
  (void)scheduleGomcds(bigRefs, model);
  const std::int64_t bigAllocs = allocCount() - beforeBig;

  EXPECT_LE(bigAllocs, smallAllocs + 4)
      << "the faulted per-datum steady state is supposed to be "
         "allocation-free: "
      << smallAllocs << " allocations for 8 data vs " << bigAllocs
      << " for 64";
}

}  // namespace
}  // namespace pimsched
