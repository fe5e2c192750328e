// pimsched_cli — schedule an externally produced trace file from the
// command line. This is the tool a downstream user would wire behind a
// compiler pass or profiler:
//
//   pimsched_cli TRACE_FILE [options]
//     --grid RxC          processor array shape        (default 4x4)
//     --windows N         execution windows            (default: per step)
//     --adaptive T        adaptive windows, drift threshold T hops
//     --method NAME       rowwise|colwise|block|cyclic|random|scds|
//                         lomcds|gomcds|grouped|groupedgomcds
//                                                      (default gomcds)
//     --capacity N|paper|unlimited                     (default paper)
//     --lookahead L       online rolling-horizon scheduler with L windows
//                         of future knowledge (overrides --method)
//     --import FILE       evaluate an existing schedule (pimsched v1;
//                         processor ids validated against the grid)
//                         instead of computing one
//     --placement         dump the per-(datum,window) centers
//     --export FILE       write the schedule in the pimsched v1 format
//     --profile FILE      record counters/timers/trace events, replay the
//                         schedule through the NoC simulator, print the
//                         metrics summary and write chrome://tracing JSON
//     --threads N         worker threads for GOMCDS's per-class solves
//                         without capacity pressure, schedule evaluation
//                         and NoC replay (0 = hardware concurrency;
//                         default 1 = sequential; capacity-bound GOMCDS
//                         is sequential at every value; results are
//                         identical for every value)
//     --csv               machine-readable summary line
//
// Exit codes: 0 = success, 1 = runtime failure (unreadable trace, solver
// error, ...), 2 = bad usage. Argument errors return through main — no
// helper calls std::exit — so the parser and runner are embeddable and
// testable as ordinary functions.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/adaptive_window.hpp"
#include "core/online.hpp"
#include "core/schedule_io.hpp"
#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "report/obs_report.hpp"
#include "sim/replay.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace pimsched;

void printUsage(std::ostream& os) {
  os << "usage: pimsched_cli TRACE_FILE [--grid RxC] [--windows N]\n"
        "       [--adaptive T] [--method NAME] [--capacity N|paper|"
        "unlimited]\n"
        "       [--lookahead L] [--import FILE] [--placement] "
        "[--export FILE]\n"
        "       [--profile FILE] [--threads N] [--csv]\n";
}

struct CliOptions {
  std::string tracePath;
  int gridRows = 4, gridCols = 4;
  int windows = -1;  // -1: per step
  double adaptive = -1.0;
  Method method = Method::kGomcds;
  std::int64_t capacity = PipelineConfig::kPaperCapacity;
  bool dumpPlacement = false;
  bool csv = false;
  int lookahead = -1;  // -1: use method
  std::string exportPath;
  std::string importPath;
  std::string profilePath;
  unsigned threads = 1;
};

/// Parses argv into options. Returns nullopt and fills `error` on any
/// usage mistake (missing values, unknown flags, unparsable numbers) —
/// the caller decides how to report and which exit code to use.
std::optional<CliOptions> parseArgs(int argc, char** argv,
                                    std::string& error) {
  if (argc < 2) {
    error = "missing trace file";
    return std::nullopt;
  }
  CliOptions opts;
  opts.tracePath = argv[1];

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        error = "missing value for " + arg;
        return std::nullopt;
      }
      return argv[++i];
    };
    try {
      if (arg == "--grid") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        const auto x = v->find('x');
        if (x == std::string::npos) {
          error = "--grid expects RxC";
          return std::nullopt;
        }
        opts.gridRows = std::stoi(v->substr(0, x));
        opts.gridCols = std::stoi(v->substr(x + 1));
      } else if (arg == "--windows") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        opts.windows = std::stoi(*v);
      } else if (arg == "--adaptive") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        opts.adaptive = std::stod(*v);
      } else if (arg == "--method") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        const auto m = methodFromString(*v);
        if (!m.has_value()) {
          error = "unknown method " + *v;
          return std::nullopt;
        }
        opts.method = *m;
      } else if (arg == "--capacity") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        if (*v == "paper") opts.capacity = PipelineConfig::kPaperCapacity;
        else if (*v == "unlimited") {
          opts.capacity = PipelineConfig::kUnlimited;
        } else {
          opts.capacity = std::stoll(*v);
        }
      } else if (arg == "--placement") {
        opts.dumpPlacement = true;
      } else if (arg == "--export") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        opts.exportPath = *v;
      } else if (arg == "--import") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        opts.importPath = *v;
      } else if (arg == "--profile") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        opts.profilePath = *v;
      } else if (arg == "--lookahead") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        opts.lookahead = std::stoi(*v);
      } else if (arg == "--threads") {
        const auto v = value();
        if (!v.has_value()) return std::nullopt;
        const int t = std::stoi(*v);
        if (t < 0) {
          error = "--threads expects N >= 0";
          return std::nullopt;
        }
        opts.threads = static_cast<unsigned>(t);
      } else if (arg == "--csv") {
        opts.csv = true;
      } else {
        error = "unknown option " + arg;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "invalid value for " + arg;
      return std::nullopt;
    }
  }
  return opts;
}

/// The whole run after argument parsing; throws on runtime failures.
void runCli(const CliOptions& opts) {
  if (!opts.profilePath.empty()) {
    obs::Registry::instance().enableTracing(true);
  }
  const ReferenceTrace trace = loadTraceFile(opts.tracePath);
  const Grid grid(opts.gridRows, opts.gridCols);

  // Windowing: explicit count, adaptive, or one window per step.
  WindowPartition partition = WindowPartition::perStep(trace.numSteps());
  if (opts.adaptive >= 0.0) {
    AdaptiveWindowOptions adaptiveOpts;
    adaptiveOpts.driftThreshold = opts.adaptive;
    partition = adaptiveWindows(trace, grid, adaptiveOpts);
  } else if (opts.windows > 0) {
    partition = WindowPartition::evenCount(trace.numSteps(), opts.windows);
  }

  PipelineConfig cfg;
  cfg.explicitWindows = partition;
  cfg.capacity = opts.capacity;
  cfg.threads = opts.threads;
  const Experiment exp(trace, grid, cfg);
  const std::int64_t cap = exp.capacity();
  const std::string methodName =
      !opts.importPath.empty() ? "import " + opts.importPath
      : opts.lookahead >= 0 ? "online L=" + std::to_string(opts.lookahead)
                            : toString(opts.method);
  const DataSchedule schedule = [&] {
    if (!opts.importPath.empty()) {
      // The grid bound rejects schedules whose processor ids the chosen
      // grid cannot hold (they would index out of bounds downstream).
      return loadScheduleFile(opts.importPath,
                              static_cast<ProcId>(grid.size()));
    }
    if (opts.lookahead < 0) return exp.schedule(opts.method);
    OnlineOptions online;
    online.lookahead = opts.lookahead;
    online.capacity = cap;
    online.order = DataOrder::kByWeightDesc;
    return scheduleOnline(exp.refs(), exp.costModel(), online);
  }();
  const EvalResult result =
      evaluateSchedule(schedule, exp.refs(), exp.costModel(), opts.threads);

  if (opts.csv) {
    std::cout << "method,windows,capacity,serve,move,total\n"
              << methodName << ',' << exp.refs().numWindows() << ',' << cap
              << ',' << result.aggregate.serve << ','
              << result.aggregate.move << ',' << result.aggregate.total()
              << '\n';
  } else {
    std::cout << "trace   : " << opts.tracePath << " (" << trace.numData()
              << " data, " << trace.numSteps() << " steps)\n"
              << "grid    : " << opts.gridRows << "x" << opts.gridCols
              << ", capacity " << cap << "\n"
              << "windows : " << exp.refs().numWindows() << "\n"
              << "method  : " << methodName << "\n"
              << "serve   : " << result.aggregate.serve << "\n"
              << "move    : " << result.aggregate.move << "\n"
              << "total   : " << result.aggregate.total() << "\n";
  }
  if (!opts.exportPath.empty()) {
    saveScheduleFile(schedule, opts.exportPath);
    if (!opts.csv) std::cout << "exported : " << opts.exportPath << "\n";
  }
  if (opts.dumpPlacement) {
    for (DataId d = 0; d < exp.refs().numData(); ++d) {
      std::cout << "data " << d << ':';
      for (WindowId w = 0; w < exp.refs().numWindows(); ++w) {
        std::cout << ' ' << schedule.center(d, w);
      }
      std::cout << '\n';
    }
  }
  if (!opts.profilePath.empty()) {
    // Replay through the NoC simulator so the profile covers the full
    // pipeline: scheduler + solver + per-window network traffic.
    ReplayOptions replayOptions;
    replayOptions.threads = opts.threads;
    const ReplayReport replay = replaySchedule(
        schedule, exp.refs(), exp.costModel(), replayOptions);
    if (!opts.csv) {
      std::cout << "replay  : makespan " << replay.total.makespan
                << " cycles, " << replay.total.numMessages
                << " messages, max link load " << replay.total.maxLinkLoad
                << "\n\n";
    }
    renderObsSummary(std::cout);
    std::ofstream os(opts.profilePath);
    if (!os) {
      throw std::runtime_error("cannot open profile output " +
                               opts.profilePath);
    }
    obs::Registry::instance().writeChromeTrace(os);
    if (!opts.csv) std::cout << "profile : " << opts.profilePath << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string parseError;
  const std::optional<CliOptions> opts = parseArgs(argc, argv, parseError);
  if (!opts.has_value()) {
    std::cerr << "error: " << parseError << "\n\n";
    printUsage(std::cerr);
    return 2;
  }
  try {
    runCli(*opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
