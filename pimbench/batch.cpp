// batch-paper / batch-faulted: in-process Experiment jobs over the paper's
// five kernels. One op = construct the Experiment, schedule (GOMCDS or
// grouped GOMCDS), verify, evaluate, and serialise the schedule. Inputs are
// the paper kernels at several sizes, each job varied by perturbTrace with
// a seed drawn from --seed. The traced replay re-runs the same ops with a
// span around each of those calls, plus sibling replays of the layers the
// scheduler calls internally (serving-cost tables, the flat layered relax
// and, on the faulted mesh, the DistanceMap build).

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "core/verify.hpp"
#include "cost/center_costs.hpp"
#include "graph/layered_dag.hpp"
#include "kernels/benchmarks.hpp"
#include "trace/perturb.hpp"

namespace pimbench {
namespace {

using namespace pimsched;

/// Inputs of the warm-up and the kernel templates do not depend on --seed,
/// so set-up does the same work on every run.
constexpr std::uint64_t kWarmupSeed = 0x5EED0F0B47C4ULL;
constexpr double kPerturbFraction = 0.1;
constexpr int kSetupRepeats = 5;

struct Job {
  PaperBenchmark kernel;
  int n;
  Method method;
  std::uint64_t perturbSeed;
};

struct Shape {
  int gridSide;
  /// Data-array edge per paper kernel (allPaperBenchmarks() order), chosen
  /// so every kernel's GOMCDS job costs about the same: the per-op latency
  /// distribution is then one tight mode and its median is steady.
  std::array<int, 5> sizes;
  int repeats;  ///< GOMCDS jobs per kernel per cycle
  /// n of one grouped-GOMCDS job per kernel per cycle (0 = none), chosen
  /// the same way.
  std::array<int, 5> groupedSizes;
  int cyclesPer10s;
};

Shape shapeFor(bool faulted, bool smoke) {
  if (smoke) {
    const int g = faulted ? 0 : 8;
    return {4, {8, 8, 8, 8, 8}, 1, {g, g, g, g, g}, 1};
  }
  // Faulted: 12x12 keeps the dense O(L*P^2) relax near 80 ms per job, so
  // a run holds ~100 jobs; on 16x16 the same kernels take 0.1-0.5 s.
  if (faulted) return {12, {46, 32, 44, 32, 48}, 3, {}, 7};
  // Healthy 16x16: GOMCDS jobs of ~110-170 ms, plus grouped GOMCDS jobs
  // of ~0.2-0.25 s (n = 24-32) as a quarter of the ops.
  return {16, {56, 40, 56, 40, 64}, 3, {32, 24, 32, 24, 32}, 3};
}

/// The array's fault state: ~3% dead processors and a few dead directed
/// links, redrawn until the alive mesh stays strongly connected.
void drawFaults(FaultMap& faults, const Grid& grid, std::uint64_t seed) {
  Rng rng(seed ^ 0xFA017ULL);
  const int deadProcs = std::max(1, grid.size() * 3 / 100);
  const int deadLinks = std::max(1, grid.size() / 36);
  for (;;) {
    faults.clear();
    while (faults.deadProcCount() < deadProcs) {
      faults.killProc(rng.below(grid.size()));
    }
    for (int i = 0; i < deadLinks;) {
      const ProcId from = rng.below(grid.size());
      const std::vector<ProcId> next = grid.neighbors(from);
      const ProcId to = next[static_cast<std::size_t>(
          rng.below(static_cast<int>(next.size())))];
      if (faults.procDead(from) || faults.procDead(to) ||
          faults.linkDead(from, to)) {
        continue;
      }
      faults.killLink(from, to);
      ++i;
    }
    if (!DistanceMap(grid, faults).partitioned()) return;
  }
}

/// Everything set-up builds: the grid, its fault state, one unperturbed
/// trace per (kernel, size) and the job list.
struct Setup {
  std::unique_ptr<Grid> grid;
  std::unique_ptr<FaultMap> faults;  ///< null on the healthy mesh
  std::map<std::pair<int, int>, ReferenceTrace> templates;
  std::vector<Job> jobs;
  PipelineConfig config;

  [[nodiscard]] ReferenceTrace input(const Job& job) const {
    const ReferenceTrace& base =
        templates.at({static_cast<int>(job.kernel), job.n});
    return perturbTrace(base, *grid, kPerturbFraction, job.perturbSeed);
  }
  [[nodiscard]] std::unique_ptr<Experiment> experiment(
      const ReferenceTrace& trace) const {
    return faults ? std::make_unique<Experiment>(trace, *grid, *faults, config)
                  : std::make_unique<Experiment>(trace, *grid, config);
  }
};

/// One cycle runs every kernel `repeats` times with GOMCDS and once with
/// grouped GOMCDS, in a seeded order, each job with its own perturbation.
std::vector<Job> jobList(const Shape& shape, int cycles, Rng& rng) {
  std::vector<Job> jobs;
  const auto& kernels = allPaperBenchmarks();
  for (int c = 0; c < cycles; ++c) {
    std::vector<Job> cycle;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      for (int r = 0; r < shape.repeats; ++r) {
        cycle.push_back({kernels[k], shape.sizes[k], Method::kGomcds, 0});
      }
      if (shape.groupedSizes[k] > 0) {
        cycle.push_back(
            {kernels[k], shape.groupedSizes[k], Method::kGroupedGomcds, 0});
      }
    }
    for (std::size_t i = cycle.size(); i > 1; --i) {
      std::swap(cycle[i - 1],
                cycle[static_cast<std::size_t>(rng.below(static_cast<int>(i)))]);
    }
    for (Job& j : cycle) j.perturbSeed = rng.next();
    jobs.insert(jobs.end(), cycle.begin(), cycle.end());
  }
  return jobs;
}

Setup buildSetup(const Options& opts, bool faulted) {
  const Shape shape = shapeFor(faulted, opts.smoke);
  Setup s;
  s.grid = std::make_unique<Grid>(shape.gridSide, shape.gridSide);
  if (faulted) {
    s.faults = std::make_unique<FaultMap>(*s.grid);
    drawFaults(*s.faults, *s.grid, opts.seed);
    s.config.capacity = PipelineConfig::kUnlimited;
  }  // healthy: the paper's 2x-minimum capacity (PipelineConfig default)
  s.config.threads = 2;
  const auto& kernels = allPaperBenchmarks();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (const int n : {shape.sizes[k], shape.groupedSizes[k]}) {
      if (n > 0) {
        s.templates.try_emplace({static_cast<int>(kernels[k]), n},
                                makePaperBenchmark(kernels[k], *s.grid, n));
      }
    }
  }
  const int cycles = std::max(1, (opts.seconds * shape.cyclesPer10s + 5) / 10);
  Rng rng(opts.seed);
  s.jobs = jobList(shape, cycles, rng);
  return s;
}

/// Outputs of one op, for the digest, the cost sum and the checks.
struct OpOutput {
  bool ok = false;
  std::string error;
  Digest digest;
  Cost total = 0;
};

/// The timed op. `log` is null for the untimed run; otherwise each call
/// into the library is one span under the op's root span.
OpOutput runOp(const Setup& s, const ReferenceTrace& trace, const Job& job,
               bool corrupt, SpanLog* log, int op) {
  OpOutput out;
  const int root = log != nullptr ? log->open("op", op) : -1;
  auto stage = [&](const char* name, auto&& fn) -> decltype(auto) {
    if (log == nullptr) return fn();
    return log->time(name, op, root, fn);
  };
  const std::unique_ptr<Experiment> exp =
      stage("construct", [&] { return s.experiment(trace); });
  DataSchedule schedule =
      stage("schedule", [&] { return exp->schedule(job.method); });
  if (corrupt) schedule.setCenter(0, 0, s.grid->size());  // off the grid
  const VerifyReport report = stage("verify", [&] {
    VerifyReport r = verifySchedule(schedule, *s.grid, exp->capacity());
    if (r.ok() && s.faults) {
      r = verifyScheduleFaults(schedule, exp->refs(), exp->costModel());
    }
    return r;
  });
  if (!report.ok()) {
    if (log != nullptr) log->close(root);
    out.error = toString(job.kernel) + " n=" + std::to_string(job.n) + " " +
                toString(job.method) + ": schedule failed verification (" +
                report.issues.front().detail + ")";
    return out;
  }
  const EvalResult eval = stage("evaluate", [&] {
    return evaluateSchedule(schedule, exp->refs(), exp->costModel(),
                            s.config.threads);
  });
  out.digest = stage("serialize", [&] {
    std::ostringstream os;
    saveSchedule(schedule, os);
    return scheduleDigest(schedule);
  });
  if (log != nullptr) log->close(root);
  out.total = eval.aggregate.total();
  out.ok = true;
  return out;
}

/// Sibling replays of the layers GOMCDS calls internally, each timed from
/// outside: the DistanceMap build, every (datum, window) serving-cost
/// table, and one flat layered solve per distinct reference string on the
/// op's own tables.
void replayLayers(const Setup& s, const ReferenceTrace& trace, SpanLog& log,
                  int op) {
  const std::unique_ptr<Experiment> exp = s.experiment(trace);
  const WindowedRefs& refs = exp->refs();
  const CostModel& model = exp->costModel();
  if (s.faults) {
    log.time("fault.distance_map", op, -1,
             [&] { return DistanceMap(*s.grid, *s.faults).partitioned(); });
  }
  std::vector<Cost> row;
  log.time("cost.center_tables", op, -1, [&] {
    for (DataId d = 0; d < refs.numData(); ++d) {
      for (WindowId w = 0; w < refs.numWindows(); ++w) {
        separableCenterCostsInto(model, refs.refs(d, w), row);
      }
    }
    return row.size();
  });

  const int layers = refs.numWindows();
  const int procs = s.grid->size();
  const Cost beta = model.params().moveVolume * model.params().hopCost;
  std::vector<Cost> trans;
  if (s.faults) {
    trans.resize(static_cast<std::size_t>(procs) * procs);
    for (ProcId q = 0; q < procs; ++q) {
      for (ProcId p = 0; p < procs; ++p) {
        trans[static_cast<std::size_t>(q) * procs + p] = model.moveCost(q, p);
      }
    }
  }
  std::map<std::uint64_t, std::vector<DataId>> classes;
  std::vector<Cost> nodeCosts(static_cast<std::size_t>(layers) * procs);
  LayeredDagScratch scratch;
  LayeredPath path;
  for (DataId d = 0; d < refs.numData(); ++d) {
    std::vector<DataId>& reps = classes[refs.refsSignature(d)];
    if (std::any_of(reps.begin(), reps.end(),
                    [&](DataId r) { return refs.sameRefs(r, d); })) {
      continue;
    }
    reps.push_back(d);
    for (WindowId w = 0; w < layers; ++w) {
      separableCenterCostsInto(model, refs.refs(d, w), row);
      std::copy(row.begin(), row.end(),
                nodeCosts.begin() + static_cast<std::ptrdiff_t>(w) * procs);
    }
    log.time("graph.relax", op, -1, [&] {
      if (s.faults) {
        LayeredDagSolver::solveFlatInto(layers, procs, nodeCosts, trans,
                                        scratch, path);
      } else {
        LayeredDagSolver::solveManhattanFlatInto(*s.grid, layers, nodeCosts,
                                                 beta, scratch, path);
      }
      return path.total;
    });
  }
}

}  // namespace

void runBatch(const Options& opts, bool faulted, RunResult& out) {
  // Set-up, repeated; the last repetition's state drives the run.
  Setup setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 =
        rep == 0 ? opts.processStart : Clock::now();
    setup = buildSetup(opts, faulted);
    // Warm-up: every kernel's GOMCDS job once, from a fixed seed.
    const Shape shape = shapeFor(faulted, opts.smoke);
    Rng warm(kWarmupSeed);
    for (std::size_t k = 0; k < allPaperBenchmarks().size(); ++k) {
      const Job job{allPaperBenchmarks()[k], shape.sizes[k], Method::kGomcds,
                    warm.next()};
      const OpOutput o =
          runOp(setup, setup.input(job), job, false, nullptr, -1);
      if (!o.ok) throw std::runtime_error("warm-up: " + o.error);
    }
    out.setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
  }

  // Timed phase: each op's input is generated between ops, with the clock
  // stopped, so the timed wall time is the sum of the op intervals. A
  // traced run also replays every op with spans right next to its untimed
  // twin (alternating which goes first), so both see the same machine
  // state and the untraced median stays the base of the traced metrics.
  SpanLog log;
  // Registry counters whose deltas around the traced ops give the count
  // and ratio metrics.
  CounterDeltas counts({"cost.center_cache.hit", "cost.center_cache.miss",
                   "gomcds.flat.solves", "gomcds.dedup.classes",
                   "gomcds.dedup.data", "pool.contention.steal_fails",
                   "pool.contention.sleeps"});
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    const Job& job = setup.jobs[i];
    const ReferenceTrace trace = setup.input(job);
    const int op = static_cast<int>(i);
    auto traced = [&] {
      counts.start();
      const OpOutput o = runOp(setup, trace, job, false, &log, op);
      counts.stop();
      if (!o.ok) out.fail("traced replay: " + o.error);
    };
    if (opts.trace && i % 2 == 1) traced();
    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    const OpOutput o =
        runOp(setup, trace, job, opts.corrupt && i == 0, nullptr, op);
    const Clock::time_point t1 = Clock::now();
    if (opts.trace && i % 2 == 0) traced();
    if (opts.trace) replayLayers(setup, trace, log, op);
    if (!o.ok) {
      out.fail(o.error);
      continue;
    }
    out.latencyMs.push_back(msBetween(t0, t1));
    out.timedWallS += msBetween(t0, t1) / 1e3;
    out.commCost += o.total;
    out.foldSchedule(o.digest);
  }
  out.peakRssMb = peakRssMb(0);
  out.note("grid", quoted(gridName(setup.grid->rows(), setup.grid->cols())));
  out.note("dead_procs", std::to_string(setup.faults ? setup.faults->deadProcCount() : 0));
  out.note("dead_links", std::to_string(setup.faults ? setup.faults->deadLinkCount() : 0));
  if (!opts.trace) return;

  const double untracedP50 = median(out.latencyMs);
  const std::vector<double> construct = log.perOpMs("construct");
  const std::vector<double> dm = log.perOpMs("fault.distance_map");
  std::vector<double> refsMs = construct;
  for (std::size_t i = 0; i < dm.size() && i < refsMs.size(); ++i) {
    refsMs[i] -= dm[i];
  }
  std::vector<double> covered(construct.size(), 0.0);
  for (const char* stage :
       {"construct", "schedule", "verify", "evaluate", "serialize"}) {
    const std::vector<double> ms = log.perOpMs(stage);
    for (std::size_t i = 0; i < ms.size() && i < covered.size(); ++i) {
      covered[i] += ms[i];
    }
  }
  const double procs = static_cast<double>(setup.grid->size());
  const double hits = counts["cost.center_cache.hit"];
  const double classes = counts["gomcds.dedup.classes"];
  out.layer("trace.refs_ms", median(refsMs), "ms");
  out.layer("fault.distance_map_ms", median(dm), "ms");
  out.layer("fault.table_mb",
            setup.faults ? procs * procs * 4 / (1024.0 * 1024.0) : 0.0,
            "MB-computed");
  out.layer("cost.center_tables_ms", median(log.perOpMs("cost.center_tables")),
            "ms");
  out.layer("cost.cache_hit_ratio",
            ratio(hits, hits + counts["cost.center_cache.miss"]),
            "ratio");
  out.layer("graph.relax_ms", median(log.perOpMs("graph.relax")), "ms");
  out.layer("graph.flat_solves", counts["gomcds.flat.solves"], "count");
  out.layer("core.schedule_ms", median(log.perOpMs("schedule")), "ms");
  // gomcds.dedup.data counts only the data that joined another datum's
  // class, so classes + data is every datum scheduled: the ratio is the
  // share of data that needed a solve of their own.
  out.layer("core.dedup_ratio",
            ratio(classes, classes + counts["gomcds.dedup.data"]),
            "ratio");
  out.layer("core.verify_ms", median(log.perOpMs("verify")), "ms");
  out.layer("core.evaluate_ms", median(log.perOpMs("evaluate")), "ms");
  out.layer("core.serialize_ms", median(log.perOpMs("serialize")), "ms");
  out.layer("util.pool.steal_fails", counts["pool.contention.steal_fails"],
            "count");
  out.layer("util.pool.sleeps", counts["pool.contention.sleeps"], "count");
  out.layer("stages.coverage_pct", 100.0 * ratio(median(covered), untracedP50),
            "%");
  out.layer("trace_overhead_pct",
            100.0 * (ratio(median(log.perOpMs("op")), untracedP50) - 1.0), "%");
  out.note("spans", std::to_string(log.size()));
}

}  // namespace pimbench
