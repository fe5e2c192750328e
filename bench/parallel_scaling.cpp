// parallel_scaling — thread-count sweep of the scheduling pipeline
// (capacity-aware GOMCDS, which is one loop in visit order at every thread
// count, + parallel schedule evaluation + per-window NoC replay) on a
// large-grid workload. Emits results/bench_parallel.json.
//
//   parallel_scaling [--smoke] [--out FILE] [--max-threads N]
//                    [--repeat N] [--warmup N]
//
// --smoke shrinks the workload to seconds-on-one-core size for CI; the
// JSON shape is identical. Every run's schedule is checked center by
// center against the one-thread run's. Each sweep point also records
// the GOMCDS layered-DAG solves per datum (counter gomcds.flat.solves,
// 1.0 at every thread count). Each thread count runs --warmup unmeasured
// iterations then --repeat measured ones and reports the median-by-total
// (default: 1 repeat in smoke, 3 in a full run).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/pipeline.hpp"
#include "kernels/benchmarks.hpp"
#include "obs/obs.hpp"
#include "sim/replay.hpp"

namespace {

using namespace pimsched;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct SweepPoint {
  unsigned threads = 1;
  double scheduleMs = 0;
  double evalMs = 0;
  double replayMs = 0;
  double solvesPerDatum = 0;
  [[nodiscard]] double totalMs() const {
    return scheduleMs + evalMs + replayMs;
  }
};

/// One full-pipeline run at the given thread count; exits 1 unless its
/// schedule equals `reference` (the one-thread run's) center by center.
SweepPoint runPipeline(const WindowedRefs& refs, const CostModel& model,
                       const SchedulerOptions& opts, unsigned threads,
                       const DataSchedule& reference) {
  SweepPoint point;
  point.threads = threads;

  obs::Registry& registry = obs::Registry::instance();
  const std::int64_t solves0 = registry.counterValue("gomcds.flat.solves");
  auto t0 = Clock::now();
  const DataSchedule schedule = scheduleGomcds(refs, model, opts, threads);
  point.scheduleMs = msSince(t0);
  point.solvesPerDatum =
      static_cast<double>(registry.counterValue("gomcds.flat.solves") -
                          solves0) /
      static_cast<double>(refs.numData());
  for (DataId d = 0; d < refs.numData(); ++d) {
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      if (schedule.center(d, w) != reference.center(d, w)) {
        std::cerr << "error: " << threads << "-thread schedule places datum "
                  << d << " on " << schedule.center(d, w) << " in window "
                  << w << ", one thread on " << reference.center(d, w)
                  << "\n";
        std::exit(1);
      }
    }
  }

  t0 = Clock::now();
  const EvalResult eval = evaluateSchedule(schedule, refs, model, threads);
  point.evalMs = msSince(t0);

  t0 = Clock::now();
  ReplayOptions replayOptions;
  replayOptions.threads = threads;
  const ReplayReport replay = replaySchedule(schedule, refs, model,
                                             replayOptions);
  point.replayMs = msSince(t0);

  // Keep the simulator honest (and the compiler from eliding the replay).
  if (replay.total.totalHopVolume !=
      eval.aggregate.total() / model.params().hopCost) {
    std::cerr << "error: replay hop volume disagrees with evaluator\n";
    std::exit(1);
  }
  return point;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string outPath = "results/bench_parallel.json";
  unsigned maxThreads = 0;
  benchtool::RepeatOptions rep;
  rep.repeat = 0;  // 0 = not set on the command line; defaulted below
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--max-threads") == 0 && i + 1 < argc) {
      maxThreads = static_cast<unsigned>(std::stoi(argv[++i]));
    } else if (benchtool::parseRepeatArg(argc, argv, i, rep)) {
      // consumed "--repeat N" / "--warmup N"
    } else {
      std::cerr << "usage: parallel_scaling [--smoke] [--out FILE] "
                   "[--max-threads N] [--repeat N] [--warmup N]\n";
      return 2;
    }
  }
  if (rep.repeat == 0) rep.repeat = smoke ? 1 : 3;

  // The scaling workload: a matrix square at the paper's 2x-minimum
  // capacity, sized so that each schedule spends tens of milliseconds in
  // 2-D solves (the data whose separable path hits a full slot, over half
  // of them here) — a sub-millisecond schedule measures pool overhead, not
  // scaling. --smoke shrinks it to 16x16 (about 20-25 ms per schedule on
  // one AVX2 core); the full run is 32x32 (about 190 ms).
  const int gridSide = smoke ? 16 : 32;
  const int n = smoke ? 32 : 48;
  const int windows = 16;
  const Grid grid(gridSide, gridSide);
  const ReferenceTrace trace =
      makePaperBenchmark(PaperBenchmark::kMatSquare, grid, n);
  PipelineConfig cfg;
  cfg.numWindows = windows;
  const Experiment exp(trace, grid, cfg);
  SchedulerOptions opts{exp.capacity(), cfg.order};

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Single-core hosts cannot exercise real parallelism: speedups measured
  // here are scheduling noise, not scaling. Flag the run instead of
  // silently reporting numbers a dashboard would read as a regression.
  const bool degraded = hw == 1;
  if (degraded) {
    std::cerr << "warning: hardware_concurrency == 1; speedup figures are "
                 "not meaningful on this host (results flagged degraded)\n";
  }
  std::vector<unsigned> threadCounts = {1, 2, 4, 8, 16};
  if (maxThreads > 0) {
    std::erase_if(threadCounts,
                  [&](unsigned t) { return t > maxThreads; });
    if (threadCounts.empty()) threadCounts = {1};
  }

  // Reference: the one-thread schedule every configuration must
  // reproduce.
  const DataSchedule seqSchedule =
      scheduleGomcds(exp.refs(), exp.costModel(), opts);
  const Cost seqCost =
      evaluateSchedule(seqSchedule, exp.refs(), exp.costModel())
          .aggregate.total();

  std::vector<SweepPoint> sweep;
  for (const unsigned t : threadCounts) {
    std::vector<SweepPoint> runs;
    for (int r = 0; r < rep.warmup + rep.repeat; ++r) {
      const SweepPoint point =
          runPipeline(exp.refs(), exp.costModel(), opts, t, seqSchedule);
      if (r >= rep.warmup) runs.push_back(point);
    }
    // Median-by-total of the measured runs (lower-middle on even counts,
    // so the reported point is one that actually happened).
    std::sort(runs.begin(), runs.end(),
              [](const SweepPoint& a, const SweepPoint& b) {
                return a.totalMs() < b.totalMs();
              });
    const SweepPoint med = runs[(runs.size() - 1) / 2];
    sweep.push_back(med);
    std::cout << "threads " << t << ": schedule " << fmt(med.scheduleMs)
              << " ms, eval " << fmt(med.evalMs) << " ms, replay "
              << fmt(med.replayMs) << " ms, total "
              << fmt(med.totalMs()) << " ms (median of " << rep.repeat
              << "), " << fmt(med.solvesPerDatum) << " solves/datum\n";
  }

  const double base = sweep.front().totalMs();
  double speedupAt4 = 0.0;
  double bestSpeedup = 0.0;
  for (const SweepPoint& p : sweep) {
    if (p.totalMs() <= 0) continue;
    if (p.threads == 4) speedupAt4 = base / p.totalMs();
    bestSpeedup = std::max(bestSpeedup, base / p.totalMs());
  }

  std::filesystem::create_directories(
      std::filesystem::path(outPath).parent_path().empty()
          ? "."
          : std::filesystem::path(outPath).parent_path().string());
  std::ofstream os(outPath);
  if (!os) {
    std::cerr << "error: cannot open " << outPath << "\n";
    return 1;
  }
  os << "{\n"
     << "  \"workload\": {\"kernel\": \"matsquare\", \"n\": " << n
     << ", \"grid\": \"" << gridSide << "x" << gridSide
     << "\", \"windows\": " << exp.refs().numWindows()
     << ", \"data\": " << exp.refs().numData()
     << ", \"capacity\": " << exp.capacity() << ", \"smoke\": "
     << (smoke ? "true" : "false") << "},\n"
     << "  \"hardware_concurrency\": " << hw << ",\n"
     << "  \"cpu_count\": " << hw << ",\n"
     << "  \"degraded\": " << (degraded ? "true" : "false") << ",\n"
     << "  \"total_cost\": " << seqCost << ",\n"
     << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    os << "    {\"threads\": " << p.threads << ", \"schedule_ms\": "
       << fmt(p.scheduleMs) << ", \"eval_ms\": " << fmt(p.evalMs)
       << ", \"replay_ms\": " << fmt(p.replayMs) << ", \"total_ms\": "
       << fmt(p.totalMs()) << ", \"speedup\": "
       << fmt(p.totalMs() > 0 ? base / p.totalMs() : 0.0)
       << ", \"solves_per_datum\": " << fmt(p.solvesPerDatum) << "}"
       << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"speedup_at_4_threads\": " << fmt(speedupAt4) << ",\n"
     << "  \"best_speedup\": " << fmt(bestSpeedup) << "\n"
     << "}\n";
  std::cout << "wrote " << outPath << "\n";

  // Scaling regression gate: a multi-core host that cannot reach 1.5x at
  // ANY swept thread count fails the run so CI goes red instead of
  // archiving a quietly flat sweep. Single-core hosts stay warn-only:
  // there is no parallelism to measure (results carry degraded: true).
  constexpr double kMinBestSpeedup = 1.5;
  const bool sweptMultiThread =
      threadCounts.size() > 1 || threadCounts.front() > 1;
  if (sweptMultiThread && bestSpeedup < kMinBestSpeedup) {
    if (degraded) {
      std::cerr << "warning: best parallel speedup " << fmt(bestSpeedup)
                << "x is below the " << fmt(kMinBestSpeedup)
                << "x floor, but the host is single-core (degraded run, "
                   "not failing)\n";
    } else {
      std::cerr << "error: best parallel speedup " << fmt(bestSpeedup)
                << "x is below the " << fmt(kMinBestSpeedup)
                << "x floor on a " << hw << "-thread host\n";
      return 1;
    }
  }
  return 0;
}
