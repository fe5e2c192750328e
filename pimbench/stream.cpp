// stream-churn: an in-process StreamSession on a healthy 32x32 grid with
// unlimited capacity. The evolving trace has one step per window; data are
// grouped, and each new window rewrites the trailing 25% of the windows
// for about half of the groups. One op = one StreamSession::step (window,
// warm solve, evaluate). The first window of each session runs the cold
// engine; every later one re-relaxes only the changed suffix.

#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"

namespace pimbench {
namespace {

using namespace pimsched;

constexpr std::uint64_t kWarmupSeed = 0x5EED057EA3ULL;
constexpr int kSetupRepeats = 5;
constexpr int kChurnPct = 25;    ///< share of windows a churned suffix spans
constexpr int kTouchedPct = 50;  ///< share of groups a window rewrites
constexpr int kCheckEvery = 32;  ///< ~1 window in this many is checked

struct Shape {
  int gridSide;
  int dataSide;
  int groupSize;
  int windows;
  int windowsPer10s;  ///< ops of a 10 s run, over all sessions
  /// Each session's first window runs the cold engine. Sessions of 50
  /// windows put cold windows at 2% of the ops: well clear of the 1% tail,
  /// so p99 lands inside the cold class, not on the edge between classes.
  int windowsPerSession;
};

Shape shapeFor(bool smoke) {
  if (smoke) return {8, 8, 4, 8, 40, 4};
  return {32, 32, 16, 16, 1600, 50};
}

/// An evolving trace over a dataSide^2 data array: data come in groups of
/// `groupSize` with identical reference strings (the sharing blocked
/// kernels show), each group referenced by two or three processors per
/// window.
class EvolvingTrace {
 public:
  EvolvingTrace(const Shape& shape, std::uint64_t seed)
      : shape_(shape),
        groups_((shape.dataSide * shape.dataSide + shape.groupSize - 1) /
                shape.groupSize),
        rng_(seed) {
    rows_.resize(static_cast<std::size_t>(shape.windows) * groups_);
    for (Row& row : rows_) row = freshRow();
  }

  /// The next revision: the trailing windows of ~kTouchedPct% of groups
  /// are rewritten.
  void advance() {
    const int churn = std::max(1, shape_.windows * kChurnPct / 100);
    std::vector<char> touched(static_cast<std::size_t>(groups_));
    for (char& t : touched) t = rng_.below(100) < kTouchedPct ? 1 : 0;
    for (int w = shape_.windows - churn; w < shape_.windows; ++w) {
      for (int g = 0; g < groups_; ++g) {
        if (touched[static_cast<std::size_t>(g)] != 0) {
          rows_[index(w, g)] = freshRow();
        }
      }
    }
  }

  [[nodiscard]] ReferenceTrace trace() const {
    ReferenceTrace t(DataSpace::singleSquare(shape_.dataSide));
    const int numData = shape_.dataSide * shape_.dataSide;
    for (int d = 0; d < numData; ++d) t.add(0, 0, d, 1);  // stable domain
    for (int w = 0; w < shape_.windows; ++w) {
      for (int g = 0; g < groups_; ++g) {
        const Row& row = rows_[index(w, g)];
        const int end = std::min(numData, (g + 1) * shape_.groupSize);
        for (int d = g * shape_.groupSize; d < end; ++d) {
          for (std::size_t i = 0; i < row.proc.size(); ++i) {
            t.add(w, row.proc[i], d, row.weight[i]);
          }
        }
      }
    }
    t.finalize();
    return t;
  }

 private:
  struct Row {
    std::vector<int> proc, weight;
  };
  [[nodiscard]] std::size_t index(int w, int g) const {
    return static_cast<std::size_t>(w) * static_cast<std::size_t>(groups_) +
           static_cast<std::size_t>(g);
  }
  Row freshRow() {
    Row row;
    const int refs = 2 + (rng_.below(4) == 0 ? 1 : 0);
    for (int i = 0; i < refs; ++i) {
      row.proc.push_back(rng_.below(shape_.gridSide * shape_.gridSide));
      row.weight.push_back(1 + rng_.below(7));
    }
    return row;
  }

  Shape shape_;
  int groups_;
  Rng rng_;
  std::vector<Row> rows_;
};

PipelineConfig configFor(const Shape& shape) {
  PipelineConfig cfg;
  cfg.numWindows = shape.windows;
  cfg.capacity = PipelineConfig::kUnlimited;
  return cfg;
}

/// A cold solve of one revision: what every warm window must reproduce.
struct ColdResult {
  Digest digest;
  Cost total = 0;
};

ColdResult coldSolve(const Shape& shape, const ReferenceTrace& trace) {
  const Grid grid(shape.gridSide, shape.gridSide);
  const Experiment exp(trace, grid, configFor(shape));
  const DataSchedule s = exp.schedule(Method::kGomcds);
  return {scheduleDigest(s),
          evaluateSchedule(s, exp.refs(), exp.costModel()).aggregate.total()};
}

}  // namespace

void runStream(const Options& opts, RunResult& out) {
  const Shape shape = shapeFor(opts.smoke);
  const int perSession = shape.windowsPerSession;
  const int sessions =
      std::max(1, opts.seconds * shape.windowsPer10s / 10 / perSession);

  // Set-up: a fixed 64-window stream (its own seed) warms the allocator,
  // the thread pool and the SIMD dispatch; repeated, median reported.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = rep == 0 ? opts.processStart : Clock::now();
    EvolvingTrace gen(shape, kWarmupSeed);
    StreamSession session(shape.gridSide, shape.gridSide, configFor(shape));
    for (int w = 0; w < 64; ++w) {
      if (w > 0) gen.advance();
      (void)session.step(gen.trace());
    }
    out.setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
  }

  // Timed phase: the clock runs only inside step(); the next revision is
  // generated, and sampled windows are checked against a cold solve, with
  // it stopped. A traced run feeds every revision to a twin session too,
  // with a span around its step, right next to the untimed step
  // (alternating which goes first) so both see the same machine state.
  CounterDeltas counts({"gomcds.flat.solves"});
  SpanLog log;
  std::int64_t reused = 0, relaxed = 0;
  std::vector<double> retainedMb;
  const Grid grid(shape.gridSide, shape.gridSide);
  Rng seeds(opts.seed);
  Rng sample(opts.seed ^ 0xC4EC4ULL);
  int checked = 0;
  for (int s = 0, op = 0; s < sessions; ++s) {
    EvolvingTrace gen(shape, seeds.next());
    StreamSession session(shape.gridSide, shape.gridSide, configFor(shape));
    StreamSession twin(shape.gridSide, shape.gridSide, configFor(shape));
    for (int w = 0; w < perSession; ++w, ++op) {
      if (w > 0) gen.advance();
      const ReferenceTrace trace = gen.trace();
      auto traced = [&] {
        counts.start();
        const StreamStepResult r =
            log.time("op", op, -1, [&] { return twin.step(trace); });
        counts.stop();
        reused += r.reusedLayers;
        relaxed += r.relaxedLayers;
        retainedMb.push_back(static_cast<double>(twin.retainedBytes()) /
                             (1024.0 * 1024.0));
      };
      if (opts.trace && op % 2 == 1) traced();
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      const StreamStepResult r = session.step(trace);
      const double ms = msBetween(t0, Clock::now());
      if (opts.trace && op % 2 == 0) traced();
      if (opts.trace && op % 8 == 0) {
        log.time("construct", op, -1, [&] {
          return Experiment(trace, grid, configFor(shape)).refs().numData();
        });
        log.time("cold", op, -1, [&] { return coldSolve(shape, trace).total; });
      }

      const Digest d = scheduleDigest(r.schedule);
      // A seeded sample, plus the last window of every session.
      if (sample.below(kCheckEvery) == 0 || w + 1 == perSession) {
        ColdResult cold = coldSolve(shape, trace);
        if (opts.corrupt && checked == 0) cold.total += 1;
        ++checked;
        if (cold.digest != d || cold.total != r.eval.aggregate.total()) {
          out.fail("window " + std::to_string(op) +
                   ": warm schedule differs from a cold solve");
          continue;
        }
      }
      out.latencyMs.push_back(ms);
      out.timedWallS += ms / 1e3;
      out.commCost += r.eval.aggregate.total();
      out.foldSchedule(d);
    }
  }
  out.peakRssMb = peakRssMb(0);
  out.note("grid", quoted(gridName(shape.gridSide, shape.gridSide)));
  out.note("sessions", std::to_string(sessions));
  out.note("windows_checked", std::to_string(checked));
  if (!opts.trace) return;

  const double untracedP50 = median(out.latencyMs);
  const double tracedP50 = median(log.perOpMs("op"));
  out.layer("trace.refs_ms", median(log.perOpMs("construct")), "ms");
  out.layer("graph.flat_solves", counts["gomcds.flat.solves"], "count");
  out.layer("core.incremental.reuse_ratio",
            ratio(static_cast<double>(reused),
                  static_cast<double>(reused + relaxed)),
            "ratio");
  out.layer("core.incremental.cold_ms", median(log.perOpMs("cold")), "ms");
  out.layer("core.incremental.retained_mb", median(retainedMb), "MB");
  // The step is the op's only top-level stage.
  out.layer("stages.coverage_pct", 100.0 * ratio(tracedP50, untracedP50), "%");
  out.layer("trace_overhead_pct", 100.0 * (ratio(tracedP50, untracedP50) - 1.0),
            "%");
  out.note("spans", std::to_string(log.size()));
}

}  // namespace pimbench
