#include "core/gomcds.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/data_order.hpp"
#include "core/gomcds_detail.hpp"
#include "cost/center_costs.hpp"
#include "cost/serve_tables.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace pimsched {

namespace detail {

void throwPlacementInfeasible(const CostModel& model, const char* scheduler,
                              const char* infeasibleMessage) {
  // On a faulted mesh an infeasible cost-graph usually means the faults
  // severed every placement path (dead mesh, partition), which callers
  // handle differently from running out of slots.
  if (const FaultMap* faults = model.faults()) {
    if (faults->aliveProcCount() == 0 || model.distances().partitioned()) {
      throw UnreachableError(std::string(scheduler) +
                             ": faulted mesh cannot host data (" +
                             faults->summary() + ")");
    }
  }
  throw CapacityInfeasibleError(infeasibleMessage);
}

namespace {

[[noreturn]] void throwGomcdsSlotDisagreement(DataId d, ProcId p, WindowId w,
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

}  // namespace

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

DedupClasses computeDedupClasses(const WindowedRefs& refs) {
  const DataId n = refs.numData();
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

GomcdsPlacement::GomcdsPlacement(const WindowedRefs& refs,
                                 const CostModel& model,
                                 const SchedulerOptions& options,
                                 bool trackFull)
    : model_(&model),
      order_(dataVisitOrder(refs, options.order)),
      occupancy_(static_cast<std::size_t>(refs.numWindows()),
                 model.occupancy(options.capacity)),
      schedule_(refs.numData(), refs.numWindows()) {
  if (trackFull) {
    const std::size_t P = static_cast<std::size_t>(model.grid().size());
    full_.resize(occupancy_.size() * P);
    for (std::size_t w = 0; w < occupancy_.size(); ++w) {
      for (std::size_t p = 0; p < P; ++p) {
        full_[w * P + p] = !occupancy_[w].hasRoom(static_cast<ProcId>(p));
      }
    }
  }
}

bool GomcdsPlacement::fits(const LayeredPath& path) const {
  for (std::size_t w = 0; w < occupancy_.size(); ++w) {
    if (!occupancy_[w].hasRoom(static_cast<ProcId>(path.nodes[w]))) {
      return false;
    }
  }
  return true;
}

void GomcdsPlacement::mask(CostBuffer& costs) const {
  simd::active().maskInf(reinterpret_cast<const unsigned char*>(full_.data()),
                         costs.data(), costs.size());
}

void GomcdsPlacement::commit(DataId d, const LayeredPath& path) {
  if (!path.feasible()) {
    throwPlacementInfeasible(
        *model_, "scheduleGomcds",
        "scheduleGomcds: capacity infeasible (no placement path)");
  }
  const std::size_t P = static_cast<std::size_t>(model_->grid().size());
  for (std::size_t w = 0; w < occupancy_.size(); ++w) {
    const auto p = static_cast<ProcId>(path.nodes[w]);
    OccupancyMap& occ = occupancy_[w];
    if (!occ.tryPlace(p)) {
      throwGomcdsSlotDisagreement(d, p, static_cast<WindowId>(w), occ);
    }
    if (!full_.empty()) {
      full_[w * P + static_cast<std::size_t>(p)] = !occ.hasRoom(p);
    }
    schedule_.setCenter(d, static_cast<WindowId>(w), p);
  }
}

DataSchedule GomcdsPlacement::finish() {
  PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                       static_cast<std::int64_t>(order_.size()));
  return std::move(schedule_);
}

LayerKernel::LayerKernel(const CostModel& model, GomcdsEngine engine)
    : grid_(&model.grid()),
      hopCost_(model.params().hopCost),
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

void LayerKernel::solveDatum(const WindowedRefs& refs, DataId d,
                             GomcdsScratch& scratch, LayeredPath& out) const {
  const int W = refs.numWindows();
  const std::size_t R = static_cast<std::size_t>(grid_->rows());
  const std::size_t C = static_cast<std::size_t>(grid_->cols());
  scratch.rows.resize(static_cast<std::size_t>(W) * R);
  scratch.cols.resize(static_cast<std::size_t>(W) * C);
  for (WindowId w = 0; w < W; ++w) {
    const std::size_t at = static_cast<std::size_t>(w);
    separableAxisCostsInto(*grid_, hopCost_, refs.refs(d, w),
                           std::span<Cost>(scratch.rows.data() + at * R, R),
                           std::span<Cost>(scratch.cols.data() + at * C, C));
  }
  LayeredDagSolver::solveSeparableInto(*grid_, W, scratch.rows, scratch.cols,
                                       beta_, scratch.dag, out);
}

}  // namespace detail

DataSchedule scheduleGomcds(const WindowedRefs& refs, const CostModel& model,
                            const SchedulerOptions& options, unsigned threads,
                            GomcdsEngine engine) {
  PIMSCHED_SCOPED_TIMER("sched.gomcds");
  const int W = refs.numWindows();
  const bool staticMask = detail::staticForbiddenSet(model, options);
  detail::GomcdsPlacement placement(refs, model, options, !staticMask);
  const std::vector<DataId>& order = placement.order();
  const std::size_t n = order.size();
  const detail::LayerKernel kernel(model, engine);
  const bool separable = kernel.separable();
  ServeTables tables(refs, model);

  if (staticMask) {
    // The forbidden set never changes, so every member of a dedup class
    // takes its class's path: one solve per class, fanned out, then one
    // commit pass in visit order. No slot is ever forbidden on a healthy
    // mesh, so there the separable solve is the whole answer.
    const detail::DedupClasses classes = detail::computeDedupClasses(refs);
    std::vector<LayeredPath> paths(classes.rep.size());
    parallelFor(static_cast<std::int64_t>(paths.size()), threads,
                [&](std::int64_t k) {
                  detail::GomcdsScratch& scratch =
                      workerScratch<detail::GomcdsScratch>();
                  const DataId rep = classes.rep[static_cast<std::size_t>(k)];
                  LayeredPath& path = paths[static_cast<std::size_t>(k)];
                  if (separable) {
                    kernel.solveDatum(refs, rep, scratch, path);
                  } else {
                    tables.datumInto(rep, scratch.serve);
                    kernel.solve(W, scratch.serve, scratch.dag, path);
                  }
                });
    const auto solves = static_cast<std::int64_t>(paths.size());
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves", solves);
    if (separable) PIMSCHED_COUNTER_ADD("gomcds.separable.solves", solves);
    PIMSCHED_COUNTER_ADD("sched.gomcds.rounds", 1);
    for (const DataId d : order) {
      placement.commit(d, paths[static_cast<std::size_t>(
                              classes.classOf[static_cast<std::size_t>(d)])]);
    }
    return placement.finish();
  }

  // Capacity-constrained: bounded-lookahead speculation with in-order
  // repair. One slot per datum of the lookahead window holds the path
  // solved against the forbidden set as of the window start and, once the
  // datum needed a 2-D solve, its serve table masked by that set. Only
  // executors that can actually run count: a nested call runs parallelFor
  // inline, so it gets the one-datum window whose every solve sees the
  // live forbidden set.
  struct Slot {
    CostBuffer serve;
    bool tabled = false;  ///< serve holds this datum's table
    LayeredPath path;
  };
  constexpr std::size_t kLookaheadPerExecutor = 32;
  std::size_t executors = 1;
  if (threads != 1 && !ThreadPool::global().insidePool()) {
    executors = threads == 0 ? ThreadPool::global().workers() + 1 : threads;
  }
  const std::size_t window =
      executors == 1 ? 1 : kLookaheadPerExecutor * executors;
  std::vector<Slot> slots(std::min(n, window));

  // The capacity screen: on a healthy mesh the datum's unconstrained path
  // comes first, from the separable solve. When none of its slots is full
  // it is the masked optimum too, tie-break included — masking only
  // raises dp values, and the path's nodes stay optimal and present
  // (docs/algorithms.md, "The capacity screen"). Otherwise, and on every
  // other kernel, the serve table is built, masked and solved in 2-D.
  std::size_t begin = 0;
  const auto solveMasked = [&](Slot& slot, DataId d,
                               LayeredDagScratch& dag) {
    if (!slot.tabled) {
      tables.datumInto(d, slot.serve);
      slot.tabled = true;
    }
    placement.mask(slot.serve);
    kernel.solve(W, slot.serve, dag, slot.path);
  };
  // Wrapped once, not per round: with one executor a round is one datum,
  // and converting the lambda for each parallelFor call would allocate.
  const std::function<void(std::int64_t)> speculate = [&](std::int64_t k) {
    Slot& slot = slots[static_cast<std::size_t>(k)];
    const DataId d = order[begin + static_cast<std::size_t>(k)];
    detail::GomcdsScratch& scratch = workerScratch<detail::GomcdsScratch>();
    slot.tabled = false;
    if (separable) {
      kernel.solveDatum(refs, d, scratch, slot.path);
      if (slot.path.feasible() && placement.fits(slot.path)) return;
    }
    solveMasked(slot, d, scratch.dag);
  };
  detail::GomcdsScratch& scratch = workerScratch<detail::GomcdsScratch>();
  std::int64_t rounds = 0;
  std::int64_t repaired = 0;
  std::int64_t tabled = 0;
  for (; begin < n; begin += slots.size()) {
    const std::size_t count = std::min(slots.size(), n - begin);
    ++rounds;
    parallelFor(static_cast<std::int64_t>(count), threads, speculate);

    // Commit in visit order — the deterministic tie-break that makes the
    // result thread-count independent. The window-start forbidden set is a
    // subset of the live one and occupancy only grows, so: a plan
    // infeasible then stays infeasible (commit throws at this datum); a
    // plan that still fits keeps its dp value and smallest-index
    // tie-breaks, so it is the live-set path; a stale plan is repaired by
    // masking its slot table (built now if the plan was separable) with
    // the live set and re-solving.
    for (std::size_t k = 0; k < count; ++k) {
      Slot& slot = slots[k];
      if (slot.path.feasible() && !placement.fits(slot.path)) {
        ++repaired;
        solveMasked(slot, order[begin + k], scratch.dag);
      }
      tabled += slot.tabled ? 1 : 0;
      placement.commit(order[begin + k], slot.path);
    }
  }
  PIMSCHED_COUNTER_ADD("sched.gomcds.rounds", rounds);
  PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                       static_cast<std::int64_t>(n) + repaired);
  PIMSCHED_COUNTER_ADD("sched.gomcds.conflicts", repaired);
  if (separable) {
    PIMSCHED_COUNTER_ADD("gomcds.separable.solves",
                         static_cast<std::int64_t>(n));
    PIMSCHED_COUNTER_ADD("gomcds.separable.screen_misses", tabled);
  }
  return placement.finish();
}

}  // namespace pimsched
