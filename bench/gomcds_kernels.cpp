// gomcds_kernels — flat-kernel GOMCDS sweep: grid sizes 4x4 -> 64x64 on a
// matmul trace, comparing the frozen pre-flat callback solver against the
// flat solver at the paper's capacity and, with unlimited capacity (the
// static forbidden set, where subproblem dedup shares whole solves),
// against the flat solver with dedup, plus faulted-mesh points
// (3% dead processors and dead links) comparing the mesh-sweep engine
// against the dense transition-table engine (GomcdsEngine::kNaive), plus a
// `grouped` section timing grouped GOMCDS (Algorithm 3 + the group DP) on
// the five paper kernels at 16x16 under the paper's 2x-minimum capacity,
// with each schedule's digest. Emits results/bench_gomcds.json and
// self-checks that all variants produce bit-identical schedules and that
// every grouped schedule passes verifySchedule (exit 1 otherwise).
//
//   gomcds_kernels [--smoke] [--out FILE] [--repeat N] [--warmup N]
//
// --smoke stops the healthy sweep at 16x16 and the faulted one at 16x16
// and runs the grouped section on 8x8, for CI; the full faulted sweep runs
// 12x12 -> 64x64. The callback baseline below is
// a verbatim copy of the pre-flat implementation (std::function node
// costs, per-layer vector allocations, per-datum cost-table lookups, no
// dedup), kept here so the bench keeps measuring the real before/after no
// matter how the library evolves.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "core/data_order.hpp"
#include "core/gomcds.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "core/verify.hpp"
#include "cost/center_costs.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "graph/mesh_links.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "kernels/benchmarks.hpp"
#include "pim/memory.hpp"
#include "util/aligned.hpp"

namespace {

using namespace pimsched;
using NodeCostFn = std::function<Cost(int, int)>;

// --- frozen pre-flat baseline ------------------------------------------

std::vector<Cost> cbMinPlus(const Grid& grid, const std::vector<Cost>& in,
                            Cost beta) {
  std::vector<Cost> h = in;
  const int R = grid.rows();
  const int C = grid.cols();
  const auto at = [&](int r, int c) -> Cost& {
    return h[static_cast<std::size_t>(grid.id(r, c))];
  };
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      if (c > 0) at(r, c) = std::min(at(r, c), satAdd(at(r, c - 1), beta));
      if (r > 0) at(r, c) = std::min(at(r, c), satAdd(at(r - 1, c), beta));
    }
  }
  for (int r = R - 1; r >= 0; --r) {
    for (int c = C - 1; c >= 0; --c) {
      if (c + 1 < C) at(r, c) = std::min(at(r, c), satAdd(at(r, c + 1), beta));
      if (r + 1 < R) at(r, c) = std::min(at(r, c), satAdd(at(r + 1, c), beta));
    }
  }
  return h;
}

LayeredPath cbSolveManhattan(const Grid& grid, int numLayers,
                             const NodeCostFn& nodeCost, Cost beta) {
  const int numNodes = grid.size();
  std::vector<std::vector<Cost>> dp(
      static_cast<std::size_t>(numLayers),
      std::vector<Cost>(static_cast<std::size_t>(numNodes), kInfiniteCost));
  for (int p = 0; p < numNodes; ++p) {
    dp[0][static_cast<std::size_t>(p)] = nodeCost(0, p);
  }
  for (int w = 1; w < numLayers; ++w) {
    const std::vector<Cost> relaxed =
        cbMinPlus(grid, dp[static_cast<std::size_t>(w - 1)], beta);
    for (int p = 0; p < numNodes; ++p) {
      dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] =
          satAdd(relaxed[static_cast<std::size_t>(p)], nodeCost(w, p));
    }
  }
  LayeredPath out;
  const std::vector<Cost>& last = dp[static_cast<std::size_t>(numLayers - 1)];
  const auto best = std::min_element(last.begin(), last.end());
  out.total = *best;
  if (out.total >= kInfiniteCost) return out;
  out.nodes.assign(static_cast<std::size_t>(numLayers), 0);
  int cur = static_cast<int>(best - last.begin());
  out.nodes[static_cast<std::size_t>(numLayers - 1)] = cur;
  for (int w = numLayers - 1; w > 0; --w) {
    const Cost target =
        dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(cur)];
    const Cost own = nodeCost(w, cur);
    int prev = -1;
    for (int q = 0; q < numNodes; ++q) {
      const Cost trans = beta * grid.manhattan(static_cast<ProcId>(q),
                                               static_cast<ProcId>(cur));
      const Cost cand = satAdd(
          satAdd(dp[static_cast<std::size_t>(w - 1)][static_cast<std::size_t>(q)],
                 trans),
          own);
      if (cand == target) {
        prev = q;
        break;
      }
    }
    if (prev < 0) {
      std::cerr << "error: baseline reconstruction failed\n";
      std::exit(1);
    }
    cur = prev;
    out.nodes[static_cast<std::size_t>(w - 1)] = cur;
  }
  return out;
}

DataSchedule scheduleCallback(const WindowedRefs& refs, const CostModel& model,
                              const SchedulerOptions& options) {
  DataSchedule schedule(refs.numData(), refs.numWindows());
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const Cost beta = model.params().hopCost * model.params().moveVolume;
  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));
  CostBuffer serve;
  const std::size_t P = static_cast<std::size_t>(grid.size());
  for (const DataId d : dataVisitOrder(refs, options.order)) {
    datumCenterCostsInto(refs, model, d, serve);
    const auto nodeCost = [&](int w, int p) -> Cost {
      if (!occupancy[static_cast<std::size_t>(w)].hasRoom(
              static_cast<ProcId>(p))) {
        return kInfiniteCost;
      }
      return serve[static_cast<std::size_t>(w) * P +
                   static_cast<std::size_t>(p)];
    };
    const LayeredPath path = cbSolveManhattan(grid, W, nodeCost, beta);
    if (!path.feasible()) {
      std::cerr << "error: baseline infeasible\n";
      std::exit(1);
    }
    for (WindowId w = 0; w < W; ++w) {
      const auto p =
          static_cast<ProcId>(path.nodes[static_cast<std::size_t>(w)]);
      occupancy[static_cast<std::size_t>(w)].tryPlace(p);
      schedule.setCenter(d, w, p);
    }
  }
  return schedule;
}

// -----------------------------------------------------------------------

bool sameSchedule(const DataSchedule& a, const DataSchedule& b) {
  if (a.numData() != b.numData() || a.numWindows() != b.numWindows()) {
    return false;
  }
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      if (a.center(d, w) != b.center(d, w)) return false;
    }
  }
  return true;
}

/// Equivalence-class count from the signatures directly (independent of
/// the obs counters, so the bench self-check works under PIMSCHED_NO_OBS).
int countDedupClasses(const WindowedRefs& refs) {
  std::unordered_map<std::uint64_t, std::vector<DataId>> bySig;
  int classes = 0;
  for (DataId d = 0; d < refs.numData(); ++d) {
    std::vector<DataId>& reps = bySig[refs.refsSignature(d)];
    bool found = false;
    for (const DataId r : reps) {
      if (refs.sameRefs(r, d)) {
        found = true;
        break;
      }
    }
    if (!found) {
      reps.push_back(d);
      ++classes;
    }
  }
  return classes;
}

struct Point {
  int side = 0;
  int n = 0;
  DataId data = 0;
  int windows = 0;
  std::int64_t capacity = 0;
  double callbackMs = 0;
  double flatMs = 0;
  double flatScalarMs = 0;
  double callbackUncappedMs = 0;  ///< callback at unlimited capacity
  double flatDedupMs = 0;         ///< flat + dedup at unlimited capacity
  int dedupClasses = 0;
  bool match = false;
};

/// A faulted-mesh sweep point: the same scheduling call through the mesh
/// sweeps (kChamfer on a faulted model) and the dense table (kNaive).
struct FaultedPoint {
  int side = 0;
  int n = 0;
  DataId data = 0;
  int windows = 0;
  int deadProcs = 0;
  int deadLinks = 0;
  int dedupClasses = 0;
  double denseMs = 0;
  double meshMs = 0;
  bool match = false;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

// --- kernel-level micro timings ----------------------------------------
//
// Times the solver's hot kernels in isolation — the chamfer min-plus sweep,
// the full per-datum layered solve, and the elementwise relax/combine rows
// — under the forced-scalar tier and the dispatched tier, on the same
// 64-byte-aligned tables the solver uses. This is where the per-kernel
// SIMD speedup is visible without scheduling bookkeeping on top.

struct MicroRow {
  int side = 0;
  std::string kernel;
  double scalarUs = 0;
  double simdUs = 0;
  [[nodiscard]] double speedup() const {
    return simdUs > 0 ? scalarUs / simdUs : 0.0;
  }
};

/// Median-of-repeat per-call microseconds of `fn` run `iters` times.
double microUs(const std::function<void()>& fn, int iters, int repeat) {
  benchtool::RepeatOptions rep;
  rep.repeat = repeat;
  rep.warmup = 1;
  const double ms = benchtool::medianRunMs(
      [&] {
        for (int i = 0; i < iters; ++i) fn();
      },
      rep);
  return ms * 1000.0 / iters;
}

std::vector<MicroRow> kernelMicro(int side, int repeat) {
  const Grid grid(side, side);
  const std::size_t n = static_cast<std::size_t>(grid.size());
  const int layers = 8;
  std::uint64_t state = 12345 + static_cast<std::uint64_t>(side);
  const auto rnd = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  CostBuffer table(n * static_cast<std::size_t>(layers));
  for (Cost& c : table) {
    c = rnd() % 6 == 0 ? kInfiniteCost : static_cast<Cost>(rnd() % 40);
  }
  CostBuffer row(n);
  CostBuffer acc(n);
  CostBuffer out(n);
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = static_cast<Cost>(rnd() % 1000);
    acc[i] = static_cast<Cost>(rnd() % 1000);
  }
  const Cost beta = 2;
  const int iters = side >= 64 ? 200 : 500;

  LayeredDagScratch scratch;
  LayeredPath path;
  const std::span<const Cost> tableSpan(table.data(), table.size());

  struct Probe {
    const char* name;
    std::function<void()> fn;
  };
  const std::vector<Probe> probes = {
      {"chamfer_minplus",
       [&] {
         manhattanMinPlusInto(grid, std::span<const Cost>(acc.data(), n),
                              beta, std::span<Cost>(out.data(), n));
       }},
      {"layered_solve",
       [&] {
         LayeredDagSolver::solveManhattanFlatInto(grid, layers, tableSpan,
                                                  beta, scratch, path);
       }},
      {"min_plus_row",
       [&] {
         simd::active().minPlusRow(row.data(), beta, acc.data(), n);
       }},
      {"combine_layer",
       [&] {
         simd::active().combineLayer(row.data(), acc.data(), out.data(), n);
       }},
  };

  std::vector<MicroRow> rows;
  const simd::Tier dispatched = simd::activeTier();
  for (const Probe& probe : probes) {
    MicroRow r;
    r.side = side;
    r.kernel = probe.name;
    simd::forceTier(simd::Tier::kScalar);
    r.scalarUs = microUs(probe.fn, iters, repeat);
    simd::forceTier(dispatched);
    r.simdUs = microUs(probe.fn, iters, repeat);
    rows.push_back(r);
  }
  return rows;
}

// --- faulted mesh ------------------------------------------------------

/// 3% dead processors plus grid.size() / 36 dead directed links (at least
/// one of each), redrawn from the seed until the alive mesh is connected.
void drawFaults(FaultMap& faults, const Grid& grid, std::uint64_t seed) {
  const int procs = std::max(1, grid.size() * 3 / 100);
  const int links = std::max(1, grid.size() / 36);
  for (;; ++seed) {
    faults.clear();
    faults.injectUniformProcs(procs, seed);
    faults.injectUniformLinks(links, seed ^ 0x5eedULL);
    if (!DistanceMap(grid, faults).partitioned()) return;
  }
}

FaultedPoint faultedPoint(int side, int n,
                          const benchtool::RepeatOptions& rep) {
  const Grid grid(side, side);
  FaultMap faults(grid);
  drawFaults(faults, grid, 0xFA017ULL + static_cast<std::uint64_t>(side));
  const ReferenceTrace trace =
      makePaperBenchmark(PaperBenchmark::kMatSquare, grid, n);
  PipelineConfig cfg;
  cfg.numWindows = 8;
  cfg.capacity = PipelineConfig::kUnlimited;
  const Experiment exp(trace, grid, faults, cfg);
  const SchedulerOptions opts{exp.capacity(), cfg.order};

  FaultedPoint pt;
  pt.side = side;
  pt.n = n;
  pt.data = exp.refs().numData();
  pt.windows = exp.refs().numWindows();
  pt.deadProcs = faults.deadProcCount();
  pt.deadLinks = faults.deadLinkCount();
  pt.dedupClasses = countDedupClasses(exp.refs());

  const auto run = [&](GomcdsEngine engine) {
    return scheduleGomcds(exp.refs(), exp.costModel(), opts, 1, engine);
  };
  const simd::Tier dispatched = simd::activeTier();
  const DataSchedule dense = run(GomcdsEngine::kNaive);
  const DataSchedule mesh = run(GomcdsEngine::kChamfer);
  simd::forceTier(simd::Tier::kScalar);
  const DataSchedule meshScalar = run(GomcdsEngine::kChamfer);
  simd::forceTier(dispatched);
  pt.match = sameSchedule(dense, mesh) && sameSchedule(dense, meshScalar);

  pt.denseMs = benchtool::medianRunMs(
      [&] { (void)run(GomcdsEngine::kNaive); }, rep);
  pt.meshMs = benchtool::medianRunMs(
      [&] { (void)run(GomcdsEngine::kChamfer); }, rep);
  return pt;
}

/// One layer's faulted min-plus relax in isolation: the dense table relax
/// (minPlusRow per finite source) against the mesh sweeps, on the same
/// random dp row, with the sweep count the mesh relax needed.
struct MeshMicroRow {
  int side = 0;
  Cost beta = 0;
  double denseUs = 0;
  double meshUs = 0;
  double sweeps = 0;
  bool match = false;
};

MeshMicroRow meshRelaxMicro(int side, Cost beta, int repeat) {
  const Grid grid(side, side);
  FaultMap faults(grid);
  drawFaults(faults, grid, 0xFA017ULL + static_cast<std::uint64_t>(side));
  const DistanceMap distances(grid, faults);
  const MeshLinks links(distances);
  const std::size_t n = static_cast<std::size_t>(grid.size());
  std::vector<Cost> trans(n * n);
  for (std::size_t q = 0; q < n; ++q) {
    for (std::size_t p = 0; p < n; ++p) {
      const Cost d = distances.hopDistance(static_cast<ProcId>(q),
                                           static_cast<ProcId>(p));
      trans[q * n + p] = d >= kInfiniteCost ? kInfiniteCost : beta * d;
    }
  }
  std::uint64_t state = 777 + static_cast<std::uint64_t>(side);
  CostBuffer in(n);
  for (std::size_t p = 0; p < n; ++p) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    in[p] = distances.alive(static_cast<ProcId>(p))
                ? static_cast<Cost>((state >> 33) % 200)
                : kInfiniteCost;
  }
  CostBuffer dense(n);
  CostBuffer mesh(n);
  const auto denseRelax = [&] {
    std::fill(dense.begin(), dense.end(), kInfiniteCost);
    for (std::size_t q = 0; q < n; ++q) {
      if (in[q] >= kInfiniteCost) continue;
      simd::active().minPlusRow(trans.data() + q * n, in[q], dense.data(), n);
    }
    simd::active().clampInf(dense.data(), n);
  };
  int sweeps = 0;
  const auto meshRelax = [&] {
    sweeps = meshMinPlusInto(links, std::span<const Cost>(in.data(), n), beta,
                             std::span<Cost>(mesh.data(), n));
  };
  denseRelax();
  meshRelax();
  MeshMicroRow r;
  r.side = side;
  r.beta = beta;
  r.sweeps = sweeps;
  r.match = std::equal(dense.begin(), dense.end(), mesh.begin());
  const int iters = side >= 64 ? 20 : side >= 32 ? 200 : 2000;
  r.denseUs = microUs(denseRelax, iters, repeat);
  r.meshUs = microUs(meshRelax, iters * 10, repeat);
  return r;
}

/// One grouped-GOMCDS job of the `grouped` section.
struct GroupedRow {
  std::string kernel;
  int side = 0;
  int n = 0;
  DataId data = 0;
  std::int64_t capacity = 0;
  double ms = 0;
  std::string digest;
  bool verified = false;
};

/// Grouped GOMCDS on every paper kernel at side x side, the paper's
/// 2x-minimum capacity, data-array edges n = 24-32 at 16x16 (halved on
/// 8x8) — the grouped jobs of the repository benchmark's paper workload.
std::vector<GroupedRow> groupedSection(int side,
                                       const benchtool::RepeatOptions& rep) {
  const Grid grid(side, side);
  const std::vector<int> sizes = {32, 24, 32, 24, 32};
  std::vector<GroupedRow> rows;
  for (std::size_t k = 0; k < allPaperBenchmarks().size(); ++k) {
    const PaperBenchmark kernel = allPaperBenchmarks()[k];
    const int n = sizes[k] * side / 16;
    const Experiment exp(makePaperBenchmark(kernel, grid, n), grid);
    GroupedRow row;
    row.kernel = toString(kernel);
    row.side = side;
    row.n = n;
    row.data = exp.refs().numData();
    row.capacity = exp.capacity();
    const DataSchedule s = exp.schedule(Method::kGroupedGomcds);
    row.digest = scheduleDigest(s).hex();
    row.verified = verifySchedule(s, grid, exp.capacity()).ok();
    row.ms = benchtool::medianRunMs(
        [&] { (void)exp.schedule(Method::kGroupedGomcds); }, rep);
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string outPath = "results/bench_gomcds.json";
  benchtool::RepeatOptions rep;
  rep.repeat = 0;  // 0 = not set on the command line; defaulted below
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (benchtool::parseRepeatArg(argc, argv, i, rep)) {
      // consumed "--repeat N" / "--warmup N"
    } else {
      std::cerr << "usage: gomcds_kernels [--smoke] [--out FILE] "
                   "[--repeat N] [--warmup N]\n";
      return 2;
    }
  }
  if (rep.repeat == 0) rep.repeat = smoke ? 1 : 3;
  if (smoke && rep.warmup == 0) rep.warmup = 0;

  const std::vector<int> sides =
      smoke ? std::vector<int>{4, 8, 16} : std::vector<int>{4, 8, 16, 32, 64};
  std::vector<Point> points;
  bool allMatch = true;

  for (const int side : sides) {
    const Grid grid(side, side);
    const int n = 2 * side;  // paper convention: data array 2x the grid side
    const ReferenceTrace trace =
        makePaperBenchmark(PaperBenchmark::kMatSquare, grid, n);
    PipelineConfig cfg;
    cfg.numWindows = 8;
    const Experiment exp(trace, grid, cfg);
    const SchedulerOptions flatOpts{exp.capacity(), cfg.order};
    const SchedulerOptions uncappedOpts{-1, cfg.order};

    Point pt;
    pt.side = side;
    pt.n = n;
    pt.data = exp.refs().numData();
    pt.windows = exp.refs().numWindows();
    pt.capacity = exp.capacity();
    pt.dedupClasses = countDedupClasses(exp.refs());

    // Correctness first: all variants must agree bit-for-bit — including
    // the flat solver with the SIMD dispatch forced to scalar, which pins
    // down cross-tier schedule identity at full-pipeline granularity.
    const simd::Tier dispatched = simd::activeTier();
    const DataSchedule base =
        scheduleCallback(exp.refs(), exp.costModel(), flatOpts);
    const DataSchedule flat =
        scheduleGomcds(exp.refs(), exp.costModel(), flatOpts);
    simd::forceTier(simd::Tier::kScalar);
    const DataSchedule flatScalar =
        scheduleGomcds(exp.refs(), exp.costModel(), flatOpts);
    simd::forceTier(dispatched);
    const DataSchedule uncapped =
        scheduleCallback(exp.refs(), exp.costModel(), uncappedOpts);
    const DataSchedule dedup =
        scheduleGomcds(exp.refs(), exp.costModel(), uncappedOpts);
    pt.match = sameSchedule(base, flat) && sameSchedule(base, flatScalar) &&
               sameSchedule(uncapped, dedup);
    allMatch = allMatch && pt.match;

    pt.callbackMs = benchtool::medianRunMs(
        [&] { (void)scheduleCallback(exp.refs(), exp.costModel(), flatOpts); },
        rep);
    pt.flatMs = benchtool::medianRunMs(
        [&] { (void)scheduleGomcds(exp.refs(), exp.costModel(), flatOpts); },
        rep);
    simd::forceTier(simd::Tier::kScalar);
    pt.flatScalarMs = benchtool::medianRunMs(
        [&] { (void)scheduleGomcds(exp.refs(), exp.costModel(), flatOpts); },
        rep);
    simd::forceTier(dispatched);
    pt.callbackUncappedMs = benchtool::medianRunMs(
        [&] {
          (void)scheduleCallback(exp.refs(), exp.costModel(), uncappedOpts);
        },
        rep);
    pt.flatDedupMs = benchtool::medianRunMs(
        [&] {
          (void)scheduleGomcds(exp.refs(), exp.costModel(), uncappedOpts);
        },
        rep);
    points.push_back(pt);

    std::cout << "grid " << side << "x" << side << " (n=" << n << ", data="
              << pt.data << ", classes=" << pt.dedupClasses << "): callback "
              << fmt(pt.callbackMs) << " ms, flat " << fmt(pt.flatMs)
              << " ms (scalar " << fmt(pt.flatScalarMs) << " ms, simd "
              << fmt(pt.flatMs > 0 ? pt.flatScalarMs / pt.flatMs : 0)
              << "x); uncapped: callback " << fmt(pt.callbackUncappedMs)
              << " ms, flat+dedup " << fmt(pt.flatDedupMs) << " ms ("
              << fmt(pt.flatDedupMs > 0 ? pt.callbackUncappedMs / pt.flatDedupMs
                                        : 0)
              << "x), schedules " << (pt.match ? "match" : "DIVERGE") << "\n";
  }

  // Kernel-level scalar-vs-SIMD micro timings at the large grid sizes
  // (the smoke sweep stops earlier, so probe its largest side instead).
  const std::vector<int> microSides =
      smoke ? std::vector<int>{16} : std::vector<int>{32, 64};
  std::vector<MicroRow> micro;
  for (const int side : microSides) {
    for (const MicroRow& r : kernelMicro(side, rep.repeat)) {
      micro.push_back(r);
      std::cout << "kernel " << r.kernel << " @" << r.side << "x" << r.side
                << ": scalar " << fmt(r.scalarUs) << " us, simd "
                << fmt(r.simdUs) << " us (" << fmt(r.speedup()) << "x)\n";
    }
  }

  // Faulted meshes: the mesh-sweep engine against the dense table engine.
  const std::vector<int> faultedSides =
      smoke ? std::vector<int>{12, 16} : std::vector<int>{12, 16, 32, 64};
  std::vector<FaultedPoint> faulted;
  std::vector<MeshMicroRow> meshMicro;
  for (const int side : faultedSides) {
    // n = 2 * side like the healthy sweep up to 32x32; the 64x64 point
    // takes n = 8 because its dense reference costs about 130 ms per
    // equivalence class.
    const FaultedPoint pt = faultedPoint(side, side >= 64 ? 8 : 2 * side,
                                         rep);
    allMatch = allMatch && pt.match;
    faulted.push_back(pt);
    std::cout << "faulted " << side << "x" << side << " (n=" << pt.n
              << ", data=" << pt.data << ", classes=" << pt.dedupClasses
              << ", dead procs " << pt.deadProcs << ", dead links "
              << pt.deadLinks << "): dense " << fmt(pt.denseMs) << " ms, mesh "
              << fmt(pt.meshMs) << " ms ("
              << fmt(pt.meshMs > 0 ? pt.denseMs / pt.meshMs : 0)
              << "x), schedules " << (pt.match ? "match" : "DIVERGE") << "\n";
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      const MeshMicroRow r = meshRelaxMicro(side, beta, rep.repeat);
      allMatch = allMatch && r.match;
      meshMicro.push_back(r);
      std::cout << "  relax beta=" << beta << ": dense " << fmt(r.denseUs)
                << " us, mesh " << fmt(r.meshUs) << " us (" << r.sweeps
                << " sweeps), values " << (r.match ? "match" : "DIVERGE")
                << "\n";
    }
  }

  const std::vector<GroupedRow> grouped = groupedSection(smoke ? 8 : 16, rep);
  for (const GroupedRow& r : grouped) {
    allMatch = allMatch && r.verified;
    std::cout << "grouped " << r.kernel << " " << r.side << "x" << r.side
              << " (n=" << r.n << ", data=" << r.data << ", capacity "
              << r.capacity << "): " << fmt(r.ms) << " ms, digest "
              << r.digest << (r.verified ? "" : ", FAILS verifySchedule")
              << "\n";
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
     << "  \"kernel\": \"matsquare\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"repeat\": " << rep.repeat << ",\n"
     << "  \"warmup\": " << rep.warmup << ",\n"
     << "  \"simd_tier\": \"" << simd::tierName(simd::activeTier())
     << "\",\n"
     << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"grid\": \"" << p.side << "x" << p.side << "\", \"n\": "
       << p.n << ", \"data\": " << p.data << ", \"windows\": " << p.windows
       << ", \"capacity\": " << p.capacity << ", \"callback_ms\": "
       << fmt(p.callbackMs) << ", \"flat_ms\": " << fmt(p.flatMs)
       << ", \"flat_scalar_ms\": " << fmt(p.flatScalarMs)
       << ", \"callback_uncapped_ms\": " << fmt(p.callbackUncappedMs)
       << ", \"flat_dedup_ms\": " << fmt(p.flatDedupMs)
       << ", \"speedup_flat\": "
       << fmt(p.flatMs > 0 ? p.callbackMs / p.flatMs : 0)
       << ", \"speedup_simd_vs_scalar\": "
       << fmt(p.flatMs > 0 ? p.flatScalarMs / p.flatMs : 0)
       << ", \"speedup_flat_dedup\": "
       << fmt(p.flatDedupMs > 0 ? p.callbackUncappedMs / p.flatDedupMs : 0)
       << ", \"dedup_classes\": " << p.dedupClasses << ", \"dedup_data\": "
       << (static_cast<std::int64_t>(p.data) - p.dedupClasses)
       << ", \"faulted\": false, \"schedules_match\": "
       << (p.match ? "true" : "false") << "}"
       << (i + 1 < points.size() || !faulted.empty() ? "," : "") << "\n";
  }
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    const FaultedPoint& p = faulted[i];
    os << "    {\"grid\": \"" << p.side << "x" << p.side << "\", \"n\": "
       << p.n << ", \"data\": " << p.data << ", \"windows\": " << p.windows
       << ", \"capacity\": -1, \"faulted\": true, \"dead_procs\": "
       << p.deadProcs << ", \"dead_links\": " << p.deadLinks
       << ", \"dense_ms\": " << fmt(p.denseMs) << ", \"mesh_ms\": "
       << fmt(p.meshMs) << ", \"speedup_mesh\": "
       << fmt(p.meshMs > 0 ? p.denseMs / p.meshMs : 0)
       << ", \"dedup_classes\": " << p.dedupClasses
       << ", \"schedules_match\": " << (p.match ? "true" : "false") << "}"
       << (i + 1 < faulted.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"mesh_relax_micro\": [\n";
  for (std::size_t i = 0; i < meshMicro.size(); ++i) {
    const MeshMicroRow& r = meshMicro[i];
    os << "    {\"grid\": \"" << r.side << "x" << r.side
       << "\", \"beta\": " << r.beta << ", \"dense_us\": " << fmt(r.denseUs)
       << ", \"mesh_us\": " << fmt(r.meshUs) << ", \"sweeps\": " << r.sweeps
       << ", \"values_match\": " << (r.match ? "true" : "false") << "}"
       << (i + 1 < meshMicro.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"grouped\": [\n";
  for (std::size_t i = 0; i < grouped.size(); ++i) {
    const GroupedRow& r = grouped[i];
    os << "    {\"kernel\": \"" << r.kernel << "\", \"grid\": \"" << r.side
       << "x" << r.side << "\", \"n\": " << r.n << ", \"data\": " << r.data
       << ", \"capacity\": " << r.capacity << ", \"ms\": " << fmt(r.ms)
       << ", \"digest\": \"" << r.digest << "\", \"verified\": "
       << (r.verified ? "true" : "false") << "}"
       << (i + 1 < grouped.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"kernel_micro\": [\n";
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const MicroRow& r = micro[i];
    os << "    {\"grid\": \"" << r.side << "x" << r.side
       << "\", \"kernel\": \"" << r.kernel << "\", \"scalar_us\": "
       << fmt(r.scalarUs) << ", \"simd_us\": " << fmt(r.simdUs)
       << ", \"speedup\": " << fmt(r.speedup()) << "}"
       << (i + 1 < micro.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << outPath << "\n";

  if (!allMatch) {
    std::cerr << "error: schedules or relaxed values diverge, or a grouped "
                 "schedule fails verification\n";
    return 1;
  }
  return 0;
}
