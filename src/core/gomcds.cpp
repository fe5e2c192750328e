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
  std::span<const Cost> table(int cls, GomcdsScratch& scratch) {
    if (classes_->size[static_cast<std::size_t>(cls)] > 1) {
      std::vector<Cost>& t = tables_[static_cast<std::size_t>(cls)];
      if (t.empty()) buildInto(cls, t);
      return t;
    }
    buildInto(cls, scratch.serve);
    return scratch.serve;
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

/// Applies the forbidden mask to a class serve table: out = full ? inf :
/// serve, elementwise over the flat W x P layout, through the dispatched
/// SIMD mask kernel.
void maskServe(std::span<const Cost> serve, const std::vector<char>& full,
               CostBuffer& out) {
  out.resize(serve.size());
  std::copy(serve.begin(), serve.end(), out.begin());
  simd::active().maskInf(reinterpret_cast<const unsigned char*>(full.data()),
                         out.data(), out.size());
}

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
          solveInto(tables.table(cls, scratch),
                    classPaths[static_cast<std::size_t>(cls)]);
          classSolved[static_cast<std::size_t>(cls)] = 1;
        }
        path = &classPaths[static_cast<std::size_t>(cls)];
      } else {
        solveInto(tables.table(cls, scratch), scratch.path);
        path = &scratch.path;
      }
    } else {
      const std::span<const Cost> serve = tables.table(cls, scratch);
      if (serve.data() == scratch.serve.data()) {
        // Singleton table already lives in scratch — mask it in place.
        simd::active().maskInf(
            reinterpret_cast<const unsigned char*>(full.data()),
            scratch.serve.data(), full.size());
      } else {
        maskServe(serve, full, scratch.serve);
      }
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
                  kernel.solve(W, tables.table(static_cast<int>(k), scratch),
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

  // Capacity-constrained plan/commit rounds. full[] snapshots the
  // forbidden set for the plan phase; the commit pass keeps it in sync.
  std::vector<char> full(static_cast<std::size_t>(W) *
                         static_cast<std::size_t>(P));
  for (WindowId w = 0; w < W; ++w) {
    for (ProcId p = 0; p < P; ++p) {
      full[static_cast<std::size_t>(w) * static_cast<std::size_t>(P) +
           static_cast<std::size_t>(p)] =
          !occupancy[static_cast<std::size_t>(w)].hasRoom(p);
    }
  }

  // plans[i] is the layered-DAG solution for order[i]; planned[i] marks it
  // current (solved against a snapshot no newer placements invalidated).
  std::vector<LayeredPath> plans(n);
  std::vector<char> planned(n, 0);
  std::vector<std::size_t> toSolve;
  toSolve.reserve(n);

  const auto pathFits = [&](const LayeredPath& path) {
    for (WindowId w = 0; w < W; ++w) {
      if (!occupancy[static_cast<std::size_t>(w)].hasRoom(
              static_cast<ProcId>(path.nodes[static_cast<std::size_t>(w)]))) {
        return false;
      }
    }
    return true;
  };

  std::size_t committed = 0;  // order[0..committed) are placed
  while (committed < n) {
    PIMSCHED_COUNTER_ADD("sched.gomcds.rounds", 1);
    // Plan phase: solve every pending datum without a current plan against
    // the read-only forbidden-set snapshot. Pure per-datum work — safe to
    // fan out; shared-class serve tables were prebuilt above.
    toSolve.clear();
    for (std::size_t i = committed; i < n; ++i) {
      if (!planned[i]) toSolve.push_back(i);
    }
    parallelFor(
        static_cast<std::int64_t>(toSolve.size()), threads,
        [&](std::int64_t k) {
          const std::size_t i = toSolve[static_cast<std::size_t>(k)];
          const DataId d = order[i];
          const int cls = classes.classOf[static_cast<std::size_t>(d)];
          GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
          const std::span<const Cost> serve = tables.table(cls, scratch);
          if (serve.data() == scratch.serve.data()) {
            simd::active().maskInf(
                reinterpret_cast<const unsigned char*>(full.data()),
                scratch.serve.data(), full.size());
          } else {
            maskServe(serve, full, scratch.serve);
          }
          kernel.solve(W, scratch.serve, scratch.dag, plans[i]);
        });
    // Marking plans current happens after the barrier: workers writing
    // adjacent planned[] bytes from different cores would false-share the
    // line for no benefit — every datum in toSolve was solved regardless.
    for (const std::size_t i : toSolve) planned[i] = 1;
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                         static_cast<std::int64_t>(toSolve.size()));

    // Commit phase: sequential, in visit order — the deterministic
    // tie-break that makes the result thread-count independent and equal
    // to the sequential engine. Stops at the first datum whose planned
    // path lost a slot to a commit it did not see.
    std::size_t i = committed;
    for (; i < n; ++i) {
      // A plan infeasible against any snapshot stays infeasible under the
      // only-growing occupancy, exactly when the sequential engine throws.
      if (!plans[i].feasible()) throwInfeasible(model);
      if (!pathFits(plans[i])) break;
      const DataId d = order[i];
      for (WindowId w = 0; w < W; ++w) {
        const auto p =
            static_cast<ProcId>(plans[i].nodes[static_cast<std::size_t>(w)]);
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
    if (i < n) {
      // Conflict: keep still-fitting plans (they remain optimal under the
      // grown forbidden set), re-solve only the invalidated ones.
      PIMSCHED_COUNTER_ADD("sched.gomcds.conflicts", 1);
      for (std::size_t j = i; j < n; ++j) {
        // Infeasible plans stay "planned": occupancy only grows, so they
        // stay infeasible and throw when the commit pass reaches them.
        if (planned[j] && plans[j].feasible() && !pathFits(plans[j])) {
          planned[j] = 0;
        }
      }
    }
    committed = i;
  }
  PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                       static_cast<std::int64_t>(refs.numData()));
  return schedule;
}

DataSchedule scheduleGomcdsParallel(const WindowedRefs& refs,
                                    const CostModel& model,
                                    unsigned threads) {
  return scheduleGomcdsParallel(refs, model, SchedulerOptions{}, threads);
}

}  // namespace pimsched
