// Ablation A2 (google-benchmark): microbenchmarks of the algorithmic
// kernels — separable vs brute-force center-cost evaluation, chamfer vs
// naive GOMCDS relaxation, and end-to-end scheduler timing vs problem size.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>

#include "core/gomcds.hpp"
#include "core/grouping.hpp"
#include "core/lomcds.hpp"
#include "core/scds.hpp"
#include "cost/center_costs.hpp"
#include "kernels/benchmarks.hpp"
#include "trace/windowed_refs.hpp"

namespace {

using namespace pimsched;

/// Deterministic reference string of `count` entries on a side x side grid.
std::vector<ProcWeight> makeRefs(int side, int count) {
  std::vector<ProcWeight> refs;
  std::uint64_t state = 12345;
  std::vector<Cost> acc(static_cast<std::size_t>(side) * side, 0);
  for (int i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    acc[(state >> 33) % acc.size()] += 1 + ((state >> 20) & 3);
  }
  for (ProcId p = 0; p < static_cast<ProcId>(acc.size()); ++p) {
    if (acc[static_cast<std::size_t>(p)] > 0) {
      refs.push_back(ProcWeight{p, acc[static_cast<std::size_t>(p)]});
    }
  }
  return refs;
}

void BM_CenterCostsBruteForce(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const Grid grid(side, side);
  const CostModel model(grid);
  const auto refs = makeRefs(side, 4 * side * side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bruteForceCenterCosts(model, refs));
  }
}
BENCHMARK(BM_CenterCostsBruteForce)->Arg(4)->Arg(16)->Arg(64);

void BM_CenterCostsSeparable(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const Grid grid(side, side);
  const CostModel model(grid);
  const auto refs = makeRefs(side, 4 * side * side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(separableCenterCosts(model, refs));
  }
}
BENCHMARK(BM_CenterCostsSeparable)->Arg(4)->Arg(16)->Arg(64);

WindowedRefs benchRefs(const Grid& grid, int n) {
  static std::map<int, ReferenceTrace>* cache =
      new std::map<int, ReferenceTrace>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache
             ->emplace(n, makePaperBenchmark(PaperBenchmark::kLuCode, grid,
                                             n))
             .first;
  }
  const ReferenceTrace& trace = it->second;
  return WindowedRefs(
      trace,
      WindowPartition::evenCount(trace.numSteps(),
                                 static_cast<int>(trace.numSteps())),
      grid);
}

void BM_Scds(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduleScds(refs, model));
  }
}
BENCHMARK(BM_Scds)->Arg(8)->Arg(16)->Arg(32);

void BM_Lomcds(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduleLomcds(refs, model));
  }
}
BENCHMARK(BM_Lomcds)->Arg(8)->Arg(16)->Arg(32);

void BM_GomcdsChamfer(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduleGomcds(refs, model, {}, 1, GomcdsEngine::kChamfer));
  }
}
BENCHMARK(BM_GomcdsChamfer)->Arg(8)->Arg(16)->Arg(32);

void BM_GomcdsNaive(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduleGomcds(refs, model, {}, 1, GomcdsEngine::kNaive));
  }
}
BENCHMARK(BM_GomcdsNaive)->Arg(8)->Arg(16)->Arg(32);

void BM_GomcdsParallel(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, 32);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduleGomcds(refs, model, {}, threads));
  }
}
BENCHMARK(BM_GomcdsParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GreedyGrouping(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Cost total = 0;
    ServeTables tables(refs, model);
    for (DataId d = 0; d < refs.numData(); ++d) {
      const WindowCostPrefix prefix(tables, d);
      total += groupingCost(greedyGrouping(prefix, model), prefix, model);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_GreedyGrouping)->Arg(8)->Arg(16);

void BM_OptimalGrouping(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Cost total = 0;
    ServeTables tables(refs, model);
    for (DataId d = 0; d < refs.numData(); ++d) {
      const WindowCostPrefix prefix(tables, d);
      total += groupingCost(optimalGrouping(prefix, model), prefix, model);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_OptimalGrouping)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
