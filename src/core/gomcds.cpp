#include "core/gomcds.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/data_order.hpp"
#include "core/gomcds_detail.hpp"
#include "cost/cost_cache.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace pimsched {

namespace detail {

void throwGomcdsInfeasible(const CostModel& model) {
  // On a faulted mesh an infeasible cost-graph usually means the faults
  // severed every placement path (dead mesh, partition), which callers
  // handle differently from running out of slots.
  if (const FaultMap* faults = model.faults()) {
    if (faults->aliveProcCount() == 0 || model.distances().partitioned()) {
      throw UnreachableError(
          "scheduleGomcds: faulted mesh cannot host data (" +
          faults->summary() + ")");
    }
  }
  throw std::runtime_error(
      "scheduleGomcds: capacity infeasible (no placement path)");
}

void throwGomcdsSlotDisagreement(DataId d, ProcId p, WindowId w,
                                 const OccupancyMap& occ) {
  // nodeCost returned kInfiniteCost for full processors, so a path through
  // one means the solver and the occupancy maps disagree — fail loudly
  // instead of corrupting the capacity accounting.
  throw std::logic_error(
      "scheduleGomcds: solver placed datum " + std::to_string(d) +
      " on full processor " + std::to_string(p) + " in window " +
      std::to_string(w) + " (used " + std::to_string(occ.used(p)) + "/" +
      std::to_string(occ.capacity()) + ")");
}

bool staticForbiddenSet(const CostModel& model,
                        const SchedulerOptions& options) {
  if (options.capacity >= 0) return false;
  const FaultMap* faults = model.faults();
  if (!faults) return true;
  const int m = model.grid().size();
  for (ProcId p = 0; p < m; ++p) {
    if (faults->procAlive(p) && faults->capacityLimit(p) >= 0) return false;
  }
  return true;
}

DedupClasses computeDedupClasses(const WindowedRefs& refs, bool enabled) {
  const DataId n = refs.numData();
  if (!enabled) {
    DedupClasses out;
    out.classOf.resize(static_cast<std::size_t>(n));
    out.rep.resize(static_cast<std::size_t>(n));
    out.size.assign(static_cast<std::size_t>(n), 1);
    for (DataId d = 0; d < n; ++d) {
      out.classOf[static_cast<std::size_t>(d)] = d;
      out.rep[static_cast<std::size_t>(d)] = d;
    }
    return out;
  }
  // Signature buckets pre-screen; full row comparison against the class
  // representative confirms, so hash collisions cannot merge classes.
  DedupClasses out = buildEquivalenceClasses(
      n, [&](DataId d) { return refs.refsSignature(d); },
      [&](DataId rep, DataId d) { return refs.sameRefs(rep, d); });
  PIMSCHED_COUNTER_ADD("gomcds.dedup.classes",
                       static_cast<std::int64_t>(out.rep.size()));
  PIMSCHED_COUNTER_ADD("gomcds.dedup.data",
                       static_cast<std::int64_t>(n) -
                           static_cast<std::int64_t>(out.rep.size()));
  return out;
}

LayerKernel::LayerKernel(const CostModel& model, GomcdsEngine engine)
    : grid_(&model.grid()),
      beta_(model.params().hopCost * model.params().moveVolume),
      dense_(engine == GomcdsEngine::kNaive) {
  if (dense_) {
    // Rows by source: fault distances can be asymmetric.
    const int m = grid_->size();
    trans_.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
    for (ProcId q = 0; q < m; ++q) {
      Cost* row = trans_.data() +
                  static_cast<std::size_t>(q) * static_cast<std::size_t>(m);
      for (ProcId p = 0; p < m; ++p) {
        row[static_cast<std::size_t>(p)] = model.moveCost(q, p);
      }
    }
    PIMSCHED_COUNTER_ADD("gomcds.trans_table.builds", 1);
  } else if (model.faultAware()) {
    mesh_.emplace(model.distances());
  }
}

void LayerKernel::resume(int numLayers, std::span<const Cost> nodeCosts,
                         int fromLayer, CostBuffer& dp,
                         LayeredDagScratch& scratch, LayeredPath& out,
                         LayeredParentCache* parents) const {
  if (dense_) {
    LayeredDagSolver::solveFlatResumeInto(numLayers, grid_->size(), nodeCosts,
                                          trans_, fromLayer, dp, scratch, out,
                                          parents);
  } else if (mesh_) {
    LayeredDagSolver::solveMeshFlatResumeInto(*mesh_, numLayers, nodeCosts,
                                              beta_, fromLayer, dp, scratch,
                                              out, parents);
  } else {
    LayeredDagSolver::solveManhattanFlatResumeInto(*grid_, numLayers,
                                                   nodeCosts, beta_, fromLayer,
                                                   dp, scratch, out, parents);
  }
}

}  // namespace detail

namespace {

using detail::DedupClasses;
using detail::GomcdsScratch;
using detail::LayerKernel;
using detail::computeDedupClasses;
using detail::staticForbiddenSet;

[[noreturn]] void throwInfeasible(const CostModel& model) {
  detail::throwGomcdsInfeasible(model);
}

[[noreturn]] void throwSlotDisagreement(DataId d, ProcId p, WindowId w,
                                        const OccupancyMap& occ) {
  detail::throwGomcdsSlotDisagreement(d, p, w, occ);
}

/// Sets every entry of the flat W x P table `costs` whose (window,
/// processor) slot is flagged in `full` to kInfiniteCost, through the
/// dispatched SIMD mask kernel.
void maskInPlace(const std::vector<char>& full, CostBuffer& costs) {
  simd::active().maskInf(reinterpret_cast<const unsigned char*>(full.data()),
                         costs.data(), costs.size());
}

/// Flat W x P serving-cost tables per equivalence class. Tables of shared
/// classes (>= 2 members) are built once and retained; singleton classes
/// are materialized into caller scratch so an all-distinct trace never
/// retains per-datum tables.
class ClassServeTables {
 public:
  ClassServeTables(const WindowedRefs& refs, const CostModel& model,
                   const DedupClasses& classes)
      : refs_(&refs),
        classes_(&classes),
        cache_(model),
        tables_(classes.rep.size()) {}

  /// Serving-cost table of class `cls`. Shared classes build lazily into
  /// their retained slot; singletons build into `scratch`.
  std::span<const Cost> table(int cls, CostBuffer& scratch) {
    if (classes_->size[static_cast<std::size_t>(cls)] > 1) {
      std::vector<Cost>& t = tables_[static_cast<std::size_t>(cls)];
      if (t.empty()) buildInto(cls, t);
      return t;
    }
    buildInto(cls, scratch);
    return scratch;
  }

  /// Writes the table of class `cls` into `out` with every (window,
  /// processor) slot flagged in `full` set to kInfiniteCost: a singleton
  /// builds straight into `out` and is masked in place, a shared table is
  /// copied out first.
  void maskedInto(int cls, const std::vector<char>& full, CostBuffer& out) {
    const std::span<const Cost> serve = table(cls, out);
    if (serve.data() != out.data()) {
      out.resize(serve.size());
      std::copy(serve.begin(), serve.end(), out.begin());
    }
    maskInPlace(full, out);
  }

  /// Builds every shared-class table upfront (the parallel planner reads
  /// them concurrently, so they must not build lazily there).
  void buildShared(unsigned threads) {
    std::vector<int> shared;
    for (std::size_t c = 0; c < tables_.size(); ++c) {
      if (classes_->size[c] > 1) shared.push_back(static_cast<int>(c));
    }
    parallelFor(static_cast<std::int64_t>(shared.size()), threads,
                [&](std::int64_t k) {
                  const int cls = shared[static_cast<std::size_t>(k)];
                  buildInto(cls, tables_[static_cast<std::size_t>(cls)]);
                });
  }

 private:
  /// Fills the flat W x P table, each window row written in place by the
  /// cost cache (span overload) — no per-row staging copy.
  template <typename Buffer>
  void buildInto(int cls, Buffer& out) {
    const DataId d = classes_->rep[static_cast<std::size_t>(cls)];
    const int W = refs_->numWindows();
    const std::size_t p = static_cast<std::size_t>(refs_->numProcs());
    out.resize(static_cast<std::size_t>(W) * p);
    for (WindowId w = 0; w < W; ++w) {
      cache_.costsInto(
          refs_->refs(d, w),
          std::span<Cost>(out.data() + static_cast<std::size_t>(w) * p, p));
    }
  }

  const WindowedRefs* refs_;
  const DedupClasses* classes_;
  CenterCostCache cache_;
  std::vector<std::vector<Cost>> tables_;
};

}  // namespace

DataSchedule scheduleGomcds(const WindowedRefs& refs, const CostModel& model,
                            const SchedulerOptions& options,
                            GomcdsEngine engine) {
  PIMSCHED_SCOPED_TIMER("sched.gomcds");
  DataSchedule schedule(refs.numData(), refs.numWindows());
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const int P = grid.size();

  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));
  if (const FaultMap* faults = model.faults()) {
    for (OccupancyMap& occ : occupancy) applyFaultCapacity(occ, *faults);
  }

  const LayerKernel kernel(model, engine);

  const DedupClasses classes = computeDedupClasses(refs, options.dedup);
  ClassServeTables tables(refs, model, classes);
  const bool staticMask = staticForbiddenSet(model, options);

  // Under a static forbidden set every member of a class takes the same
  // path; solve once per class on first use. Under capacity pressure the
  // mask grows between data, so each datum gets a masked solve (reusing
  // the class serve table); full[] mirrors !occupancy[w].hasRoom(p).
  std::vector<LayeredPath> classPaths(
      staticMask && options.dedup ? classes.rep.size() : 0);
  std::vector<char> classSolved(classPaths.size(), 0);
  std::vector<char> full;
  if (!staticMask) {
    full.resize(static_cast<std::size_t>(W) * static_cast<std::size_t>(P));
    for (WindowId w = 0; w < W; ++w) {
      for (ProcId p = 0; p < P; ++p) {
        full[static_cast<std::size_t>(w) * static_cast<std::size_t>(P) +
             static_cast<std::size_t>(p)] =
            !occupancy[static_cast<std::size_t>(w)].hasRoom(p);
      }
    }
  }

  GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
  const auto solveInto = [&](std::span<const Cost> nodeCosts,
                             LayeredPath& out) {
    kernel.solve(W, nodeCosts, scratch.dag, out);
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves", 1);
  };

  for (const DataId d : dataVisitOrder(refs, options.order)) {
    const int cls = classes.classOf[static_cast<std::size_t>(d)];
    const LayeredPath* path = nullptr;
    if (staticMask) {
      const bool shared = !classPaths.empty() &&
                          classes.size[static_cast<std::size_t>(cls)] > 1;
      if (shared) {
        if (!classSolved[static_cast<std::size_t>(cls)]) {
          solveInto(tables.table(cls, scratch.serve),
                    classPaths[static_cast<std::size_t>(cls)]);
          classSolved[static_cast<std::size_t>(cls)] = 1;
        }
        path = &classPaths[static_cast<std::size_t>(cls)];
      } else {
        solveInto(tables.table(cls, scratch.serve), scratch.path);
        path = &scratch.path;
      }
    } else {
      tables.maskedInto(cls, full, scratch.serve);
      solveInto(scratch.serve, scratch.path);
      path = &scratch.path;
    }

    if (!path->feasible()) throwInfeasible(model);
    for (WindowId w = 0; w < W; ++w) {
      const auto p =
          static_cast<ProcId>(path->nodes[static_cast<std::size_t>(w)]);
      if (!occupancy[static_cast<std::size_t>(w)].tryPlace(p)) {
        throwSlotDisagreement(d, p, w, occupancy[static_cast<std::size_t>(w)]);
      }
      if (!staticMask) {
        full[static_cast<std::size_t>(w) * static_cast<std::size_t>(P) +
             static_cast<std::size_t>(p)] =
            !occupancy[static_cast<std::size_t>(w)].hasRoom(p);
      }
      schedule.setCenter(d, w, p);
    }
    PIMSCHED_COUNTER_ADD("sched.gomcds.data", 1);
  }
  return schedule;
}

DataSchedule scheduleGomcdsParallel(const WindowedRefs& refs,
                                    const CostModel& model,
                                    const SchedulerOptions& options,
                                    unsigned threads) {
  PIMSCHED_SCOPED_TIMER("sched.gomcds_parallel");
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const int P = grid.size();
  DataSchedule schedule(refs.numData(), W);

  const std::vector<DataId> order = dataVisitOrder(refs, options.order);
  const std::size_t n = order.size();

  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));
  if (const FaultMap* faults = model.faults()) {
    for (OccupancyMap& occ : occupancy) applyFaultCapacity(occ, *faults);
  }

  const LayerKernel kernel(model, GomcdsEngine::kChamfer);

  const DedupClasses classes = computeDedupClasses(refs, options.dedup);
  ClassServeTables tables(refs, model, classes);
  tables.buildShared(threads);
  const bool staticMask = staticForbiddenSet(model, options);

  // gomcds.flat.solves is accounted in bulk per fan-out below — a
  // per-solve add in the workers would have every one hammering one
  // counter cache line.

  if (staticMask) {
    // The forbidden set never changes, so plans cannot conflict: one solve
    // per equivalence class, fanned out over the pool, then a single
    // sequential commit pass in visit order.
    PIMSCHED_COUNTER_ADD("sched.gomcds.rounds", 1);
    std::vector<LayeredPath> classPaths(classes.rep.size());
    parallelFor(static_cast<std::int64_t>(classes.rep.size()), threads,
                [&](std::int64_t k) {
                  GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
                  kernel.solve(W,
                               tables.table(static_cast<int>(k), scratch.serve),
                               scratch.dag,
                               classPaths[static_cast<std::size_t>(k)]);
                });
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                         static_cast<std::int64_t>(classes.rep.size()));
    for (std::size_t i = 0; i < n; ++i) {
      const DataId d = order[i];
      const LayeredPath& path =
          classPaths[static_cast<std::size_t>(
              classes.classOf[static_cast<std::size_t>(d)])];
      if (!path.feasible()) throwInfeasible(model);
      for (WindowId w = 0; w < W; ++w) {
        const auto p =
            static_cast<ProcId>(path.nodes[static_cast<std::size_t>(w)]);
        if (!occupancy[static_cast<std::size_t>(w)].tryPlace(p)) {
          throwSlotDisagreement(d, p, w,
                                occupancy[static_cast<std::size_t>(w)]);
        }
        schedule.setCenter(d, w, p);
      }
    }
    PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                         static_cast<std::int64_t>(refs.numData()));
    return schedule;
  }

  // Capacity-constrained: bounded-lookahead speculation with in-order
  // repair. full[] mirrors !occupancy[w].hasRoom(p); the commit pass keeps
  // it in sync and nothing writes it while a window is being planned.
  std::vector<char> full(static_cast<std::size_t>(W) *
                         static_cast<std::size_t>(P));
  for (WindowId w = 0; w < W; ++w) {
    for (ProcId p = 0; p < P; ++p) {
      full[static_cast<std::size_t>(w) * static_cast<std::size_t>(P) +
           static_cast<std::size_t>(p)] =
          !occupancy[static_cast<std::size_t>(w)].hasRoom(p);
    }
  }

  const auto pathFits = [&](const LayeredPath& path) {
    for (WindowId w = 0; w < W; ++w) {
      if (!occupancy[static_cast<std::size_t>(w)].hasRoom(
              static_cast<ProcId>(path.nodes[static_cast<std::size_t>(w)]))) {
        return false;
      }
    }
    return true;
  };

  // One slot per datum of the lookahead window: its serve table, masked by
  // the forbidden set as of the window start, and the path solved from it.
  struct Slot {
    CostBuffer serve;
    LayeredPath path;
  };
  constexpr std::size_t kLookaheadPerThread = 32;
  const std::size_t executors =
      threads == 0 ? ThreadPool::global().workers() + 1 : threads;
  std::vector<Slot> slots(std::min(n, kLookaheadPerThread * executors));
  GomcdsScratch& scratch = workerScratch<GomcdsScratch>();

  for (std::size_t begin = 0; begin < n; begin += slots.size()) {
    const std::size_t count = std::min(slots.size(), n - begin);
    PIMSCHED_COUNTER_ADD("sched.gomcds.rounds", 1);
    // Speculate: solve the window's data against the window-start
    // forbidden set. Each serve table is built once, into its slot.
    parallelFor(static_cast<std::int64_t>(count), threads,
                [&](std::int64_t k) {
                  Slot& slot = slots[static_cast<std::size_t>(k)];
                  const DataId d = order[begin + static_cast<std::size_t>(k)];
                  tables.maskedInto(
                      classes.classOf[static_cast<std::size_t>(d)], full,
                      slot.serve);
                  kernel.solve(W, slot.serve,
                               workerScratch<GomcdsScratch>().dag, slot.path);
                });

    // Commit in visit order — the deterministic tie-break that makes the
    // result thread-count independent and equal to the sequential engine.
    // The window-start forbidden set is a subset of the live one and
    // occupancy only grows, so: a plan infeasible then stays infeasible
    // (the sequential engine throws at this datum too); a plan that still
    // fits keeps its dp value and smallest-index tie-breaks, so it is the
    // sequential engine's path; a stale plan is repaired by masking its
    // slot table with the live set and re-solving — exactly the sequential
    // solve for this datum.
    std::int64_t repaired = 0;
    for (std::size_t k = 0; k < count; ++k) {
      Slot& slot = slots[k];
      if (!slot.path.feasible()) throwInfeasible(model);
      if (!pathFits(slot.path)) {
        ++repaired;
        maskInPlace(full, slot.serve);
        kernel.solve(W, slot.serve, scratch.dag, slot.path);
        if (!slot.path.feasible()) throwInfeasible(model);
      }
      const DataId d = order[begin + k];
      for (WindowId w = 0; w < W; ++w) {
        const auto p =
            static_cast<ProcId>(slot.path.nodes[static_cast<std::size_t>(w)]);
        if (!occupancy[static_cast<std::size_t>(w)].tryPlace(p)) {
          throwSlotDisagreement(d, p, w,
                                occupancy[static_cast<std::size_t>(w)]);
        }
        full[static_cast<std::size_t>(w) * static_cast<std::size_t>(P) +
             static_cast<std::size_t>(p)] =
            !occupancy[static_cast<std::size_t>(w)].hasRoom(p);
        schedule.setCenter(d, w, p);
      }
    }
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                         static_cast<std::int64_t>(count) + repaired);
    PIMSCHED_COUNTER_ADD("sched.gomcds.conflicts", repaired);
  }
  PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                       static_cast<std::int64_t>(refs.numData()));
  return schedule;
}

}  // namespace pimsched
