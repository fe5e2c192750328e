#include "core/gomcds.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/gomcds_detail.hpp"
#include "core/placement.hpp"
#include "cost/center_costs.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "obs/obs.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace pimsched {

namespace detail {

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

void LayerKernel::solve(int numLayers, std::span<const Cost> nodeCosts,
                        LayeredDagScratch& scratch, LayeredPath& out) const {
  if (separable()) {
    LayeredDagSolver::solveManhattanFlatInto(*grid_, numLayers, nodeCosts,
                                             beta_, scratch, out);
  } else {
    resume(numLayers, nodeCosts, 0, scratch.dp, scratch, out, nullptr);
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
  } else {
    LayeredDagSolver::solveMeshFlatResumeInto(mesh_.value(), numLayers,
                                              nodeCosts, beta_, fromLayer, dp,
                                              scratch, out, parents);
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

void LayerKernel::serveFromMarginals(int numLayers,
                                     GomcdsScratch& scratch) const {
  const std::size_t R = static_cast<std::size_t>(grid_->rows());
  const std::size_t C = static_cast<std::size_t>(grid_->cols());
  scratch.serve.resize(static_cast<std::size_t>(numLayers) * R * C);
  for (std::size_t w = 0; w < static_cast<std::size_t>(numLayers); ++w) {
    separableSumInto(
        std::span<const Cost>(scratch.rows.data() + w * R, R),
        std::span<const Cost>(scratch.cols.data() + w * C, C),
        std::span<Cost>(scratch.serve.data() + w * R * C, R * C));
  }
}

}  // namespace detail

DataSchedule scheduleGomcds(const WindowedRefs& refs, const CostModel& model,
                            const SchedulerOptions& options, unsigned threads,
                            GomcdsEngine engine) {
  PIMSCHED_SCOPED_TIMER("sched.gomcds");
  const int W = refs.numWindows();
  const bool staticMask = detail::staticForbiddenSet(model, options);
  Placement placement(refs, model, options.capacity, options.order);
  const std::vector<DataId>& order = placement.order();
  const detail::LayerKernel kernel(model, engine);
  const bool separable = kernel.separable();

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
                    datumCenterCostsInto(refs, model, rep, scratch.serve);
                    kernel.solve(W, scratch.serve, scratch.dag, path);
                  }
                });
    const auto solves = static_cast<std::int64_t>(paths.size());
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves", solves);
    if (separable) PIMSCHED_COUNTER_ADD("gomcds.separable.solves", solves);
    for (const DataId d : order) {
      placement.commit(d,
                       paths[static_cast<std::size_t>(
                           classes.classOf[static_cast<std::size_t>(d)])],
                       "scheduleGomcds");
    }
    PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                         static_cast<std::int64_t>(order.size()));
    return placement.finish();
  }

  // Capacity-constrained: paper Algorithm 2's loop, one datum at a time in
  // visit order, each solved against the live forbidden set and committed
  // before the next. On a healthy mesh the separable path comes first;
  // when none of its slots is full it is the masked optimum too,
  // tie-break included — masking only raises dp values, and the path's
  // nodes stay optimal and present (docs/algorithms.md, "The capacity
  // screen"). Otherwise the serve table is built, masked and solved in
  // 2-D: on a healthy mesh from the marginals the separable solve left in
  // scratch (a row sum, cheaper than recomputing the row), on every other
  // kernel row by row with datumCenterCostsInto.
  detail::GomcdsScratch& scratch = workerScratch<detail::GomcdsScratch>();
  LayeredPath path;
  std::int64_t misses = 0;
  for (const DataId d : order) {
    if (separable) {
      kernel.solveDatum(refs, d, scratch, path);
      if (path.feasible() && placement.fits(path)) {
        placement.commit(d, path, "scheduleGomcds");
        continue;
      }
      ++misses;
      kernel.serveFromMarginals(W, scratch);
    } else {
      datumCenterCostsInto(refs, model, d, scratch.serve);
    }
    placement.mask(scratch.serve);
    kernel.solve(W, scratch.serve, scratch.dag, path);
    placement.commit(d, path, "scheduleGomcds");
  }
  const auto solves = static_cast<std::int64_t>(order.size());
  PIMSCHED_COUNTER_ADD("gomcds.flat.solves", solves);
  if (separable) {
    PIMSCHED_COUNTER_ADD("gomcds.separable.solves", solves);
    PIMSCHED_COUNTER_ADD("gomcds.separable.screen_misses", misses);
  }
  PIMSCHED_COUNTER_ADD("sched.gomcds.data", solves);
  return placement.finish();
}

}  // namespace pimsched
