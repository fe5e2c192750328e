// Ablation A2 (google-benchmark): microbenchmarks of the algorithmic
// kernels — separable vs brute-force center-cost evaluation, chamfer vs
// naive GOMCDS relaxation, trace text reading, trace windowing, and
// end-to-end scheduler timing vs problem size.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "ablation/dense_gomcds.hpp"
#include "core/gomcds.hpp"
#include "core/grouping.hpp"
#include "core/lomcds.hpp"
#include "core/scds.hpp"
#include "cost/center_costs.hpp"
#include "kernels/benchmarks.hpp"
#include "trace/trace_io.hpp"
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

/// A stream-churn-shaped trace: 32x32 data over 16 steps, the data in
/// groups of 16 that share a reference string of two or three processors
/// of the grid per step, plus one step-0 access per datum.
ReferenceTrace streamShapedTrace(const Grid& grid) {
  constexpr int kSide = 32, kGroup = 16, kSteps = 16;
  ReferenceTrace trace(DataSpace::singleSquare(kSide));
  std::uint64_t state = 4242;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % bound);
  };
  for (DataId d = 0; d < kSide * kSide; ++d) trace.add(0, 0, d, 1);
  for (StepId s = 0; s < kSteps; ++s) {
    for (DataId g = 0; g < kSide * kSide; g += kGroup) {
      const int refs = 2 + (next(4) == 0 ? 1 : 0);
      for (int i = 0; i < refs; ++i) {
        const ProcId p = next(static_cast<std::uint64_t>(grid.size()));
        const Cost w = 1 + next(7);
        for (DataId d = g; d < g + kGroup; ++d) trace.add(s, p, d, w);
      }
    }
  }
  trace.finalize();
  return trace;
}

/// Trace to WindowedRefs alone: the windowing layer every job runs before
/// its scheduler. Arg 0: matrix square (n = 40) on a 16x16 grid in the
/// default 8 windows, a batch-paper job. Arg 1: the stream-churn-shaped
/// trace on a 32x32 grid in 16 one-step windows, one stream step.
void BM_WindowedRefsBuild(benchmark::State& state) {
  const bool stream = state.range(0) == 1;
  const Grid grid = stream ? Grid(32, 32) : Grid(16, 16);
  const ReferenceTrace trace =
      stream ? streamShapedTrace(grid)
             : makePaperBenchmark(PaperBenchmark::kMatSquare, grid, 40);
  const WindowPartition windows =
      WindowPartition::evenCount(trace.numSteps(), stream ? 16 : 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WindowedRefs(trace, windows, grid));
  }
  state.SetLabel(stream ? "stream-churn 32x32" : "matsquare n=40 16x16");
  state.counters["accesses"] =
      static_cast<double>(trace.accesses().size());
}
BENCHMARK(BM_WindowedRefsBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// pimtrace v1 text to a finalized trace: the reader every daemon submit
/// runs on its inline trace, cache hits included. Arg 0: matrix square
/// n = 20 on an 8x8 grid (~300 KiB of text). Arg 1: n = 12 on 4x4.
void BM_LoadTrace(benchmark::State& state) {
  const bool large = state.range(0) == 0;
  const Grid grid = large ? Grid(8, 8) : Grid(4, 4);
  std::ostringstream os;
  saveTrace(makePaperBenchmark(PaperBenchmark::kMatSquare, grid,
                               large ? 20 : 12),
            os);
  const std::string text = std::move(os).str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(loadTrace(text));
  }
  state.SetLabel(large ? "matsquare n=20 8x8" : "matsquare n=12 4x4");
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LoadTrace)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

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
    benchmark::DoNotOptimize(scheduleGomcds(refs, model));
  }
}
BENCHMARK(BM_GomcdsChamfer)->Arg(8)->Arg(16)->Arg(32);

void BM_GomcdsNaive(benchmark::State& state) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const WindowedRefs refs = benchRefs(grid, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduleDenseGomcds(refs, model));
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
    for (DataId d = 0; d < refs.numData(); ++d) {
      const WindowCostPrefix prefix(refs, model, d);
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
    for (DataId d = 0; d < refs.numData(); ++d) {
      const WindowCostPrefix prefix(refs, model, d);
      total += groupingCost(optimalGrouping(prefix, model), prefix, model);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_OptimalGrouping)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
