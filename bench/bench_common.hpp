#pragma once

// Shared plumbing for the bench harnesses: repetition and timing helpers,
// and the paper's experiment set-up (the 4x4 array, per-step windows and
// the benchmark x size grid of the paper's evaluation section: 5
// benchmarks x {8x8, 16x16, 32x32}, per-processor memory = twice the
// minimum) with rows formatted in the paper's layout (communication cost +
// % improvement over the straight-forward row-wise distribution).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "ablation/stats.hpp"
#include "core/pipeline.hpp"
#include "kernels/benchmarks.hpp"
#include "obs/obs.hpp"
#include "report/table.hpp"
#include "util/thread_pool.hpp"

namespace pimsched::benchtool {

/// Repetition controls shared by the timing harnesses: every measured
/// configuration runs `warmup` throwaway iterations followed by `repeat`
/// timed ones and reports the median, so emitted JSON stays stable across
/// runs on a noisy machine.
struct RepeatOptions {
  int repeat = 1;
  int warmup = 0;
};

/// Consumes a "--repeat N" or "--warmup N" pair at argv[i] (advancing i past
/// the value); returns false when argv[i] is neither flag.
inline bool parseRepeatArg(int argc, char** argv, int& i,
                           RepeatOptions& opts) {
  if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
    opts.repeat = std::max(1, std::atoi(argv[++i]));
    return true;
  }
  if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
    opts.warmup = std::max(0, std::atoi(argv[++i]));
    return true;
  }
  return false;
}

/// Median of a sample set (lower-middle element for even sizes, so the
/// value is always one that was actually measured).
inline double medianOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[(samples.size() - 1) / 2];
}

/// Median wall-clock milliseconds of fn() over opts.repeat timed runs,
/// after opts.warmup unmeasured ones.
template <class Fn>
double medianRunMs(const Fn& fn, const RepeatOptions& opts) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < opts.warmup; ++i) fn();
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(opts.repeat));
  for (int i = 0; i < opts.repeat; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return medianOf(std::move(ms));
}

/// The data sizes n (n x n) of the paper's tables.
inline constexpr int kPaperSizes[] = {8, 16, 32};

/// The paper's 4x4 PIM array.
inline const Grid& paperGrid() {
  static const Grid grid(4, 4);
  return grid;
}

/// One window per parallel execution step of `trace` (the regime where
/// run-time data movement and Algorithm 3 matter most, cf. paper §4) at
/// `capacity` (default: the paper's twice-the-minimum rule).
inline PipelineConfig perStepConfig(
    const ReferenceTrace& trace,
    std::int64_t capacity = PipelineConfig::kPaperCapacity) {
  PipelineConfig cfg;
  cfg.numWindows = static_cast<int>(trace.numSteps());
  cfg.capacity = capacity;
  return cfg;
}

/// Total communication cost of method `m` on `exp`.
inline Cost totalCost(const Experiment& exp, Method m) {
  return exp.evaluate(m).aggregate.total();
}

/// One experiment = one table row.
struct Row {
  std::string benchmark;
  int n = 0;
  Cost sf = 0;
  std::vector<Cost> costs;  ///< per method, same order as the header
};

/// Runs `methods` on every (benchmark, size) pair on the paper grid at the
/// paper's capacity: one window per execution step when `windows` is 0,
/// else `windows` windows per run. The rows are independent and run on
/// every core; their costs do not depend on the thread count.
inline std::vector<Row> runPaperGrid(
    const std::vector<Method>& methods, int windows = 0,
    PartitionKind partition = PartitionKind::kRowBlock) {
  const std::vector<PaperBenchmark>& benchmarks = allPaperBenchmarks();
  const std::size_t sizes = std::size(kPaperSizes);
  std::vector<Row> rows(benchmarks.size() * sizes);
  parallelFor(static_cast<std::int64_t>(rows.size()), 0,
              [&](std::int64_t i) {
                PIMSCHED_SCOPED_TIMER("bench.experiment");
                const auto k = static_cast<std::size_t>(i);
                Row& row = rows[k];
                row.benchmark = toString(benchmarks[k / sizes]);
                row.n = kPaperSizes[k % sizes];
                const ReferenceTrace trace = makePaperBenchmark(
                    benchmarks[k / sizes], paperGrid(), row.n, partition);
                PipelineConfig cfg = perStepConfig(trace);
                if (windows > 0) cfg.numWindows = windows;
                const Experiment exp(trace, paperGrid(), cfg);
                row.sf = totalCost(exp, Method::kRowWise);
                for (const Method m : methods) {
                  row.costs.push_back(totalCost(exp, m));
                }
              });
  return rows;
}

/// The rows restricted to the method columns `columns` (indices into
/// Row::costs), so several tables can share one runPaperGrid pass.
inline std::vector<Row> selectColumns(std::vector<Row> rows,
                                      const std::vector<std::size_t>& columns) {
  for (Row& r : rows) {
    std::vector<Cost> picked;
    for (const std::size_t c : columns) picked.push_back(r.costs[c]);
    r.costs = std::move(picked);
  }
  return rows;
}

/// Mean % improvement over S.F. of each method column of `rows`.
inline std::vector<double> meanImprovements(const std::vector<Row>& rows) {
  std::vector<std::vector<double>> pcts(rows.empty() ? 0
                                                     : rows[0].costs.size());
  for (const Row& r : rows) {
    for (std::size_t i = 0; i < r.costs.size(); ++i) {
      pcts[i].push_back(improvementPct(r.sf, r.costs[i]));
    }
  }
  std::vector<double> out;
  for (const auto& p : pcts) out.push_back(mean(p));
  return out;
}

/// Prints the paper-style table: B. | Size | S.F. | per-method Comm. | %.
inline void printPaperTable(const std::vector<Row>& rows,
                            const std::vector<std::string>& methodNames,
                            std::ostream& os) {
  std::vector<std::string> header = {"B.", "Size", "S.F."};
  for (const std::string& m : methodNames) {
    header.push_back(m + " Comm.");
    header.push_back(m + " %");
  }
  TextTable table(header);
  for (const Row& r : rows) {
    std::vector<std::string> cells = {
        r.benchmark, std::to_string(r.n) + "x" + std::to_string(r.n),
        std::to_string(r.sf)};
    for (const Cost c : r.costs) {
      cells.push_back(std::to_string(c));
      cells.push_back(formatFixed(improvementPct(r.sf, c), 1));
    }
    table.addRow(std::move(cells));
  }
  table.addRule();
  std::vector<std::string> avg = {"avg", "", ""};
  for (const double pct : meanImprovements(rows)) {
    avg.emplace_back("");
    avg.push_back(formatFixed(pct, 1));
  }
  table.addRow(std::move(avg));
  table.print(os);
}

}  // namespace pimsched::benchtool
