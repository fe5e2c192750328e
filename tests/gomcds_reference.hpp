#pragma once

// A literal GOMCDS reference for the engine identity tests: data in visit
// order, each datum's serve rows computed directly, full slots masked, one
// dense cost-graph solve per datum, commit. No dedup classes, no separable
// screen, no cost cache and no grid-structured kernel.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/data_order.hpp"
#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/center_costs.hpp"
#include "cost/cost_model.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "pim/memory.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched::testutil {

/// Paper Algorithm 2 read literally. An instance without a feasible path
/// throws UnreachableError when faults cut every placement (no alive
/// processor, or a partitioned mesh) and std::runtime_error otherwise.
inline DataSchedule referenceGomcds(const WindowedRefs& refs,
                                    const CostModel& model,
                                    const SchedulerOptions& options = {}) {
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const std::size_t P = static_cast<std::size_t>(grid.size());
  std::vector<OccupancyMap> occupancy(static_cast<std::size_t>(W),
                                      OccupancyMap(grid, options.capacity));
  if (const FaultMap* faults = model.faults()) {
    for (OccupancyMap& occ : occupancy) applyFaultCapacity(occ, *faults);
  }
  std::vector<Cost> trans(P * P);
  for (std::size_t q = 0; q < P; ++q) {
    for (std::size_t p = 0; p < P; ++p) {
      trans[q * P + p] =
          model.moveCost(static_cast<ProcId>(q), static_cast<ProcId>(p));
    }
  }

  DataSchedule schedule(refs.numData(), W);
  std::vector<Cost> nodes(static_cast<std::size_t>(W) * P);
  std::vector<Cost> row;
  for (const DataId d : dataVisitOrder(refs, options.order)) {
    for (WindowId w = 0; w < W; ++w) {
      separableCenterCostsInto(model, refs.refs(d, w), row);
      for (std::size_t p = 0; p < P; ++p) {
        nodes[static_cast<std::size_t>(w) * P + p] =
            occupancy[static_cast<std::size_t>(w)].hasRoom(
                static_cast<ProcId>(p))
                ? row[p]
                : kInfiniteCost;
      }
    }
    const LayeredPath path =
        LayeredDagSolver::solveFlat(W, grid.size(), nodes, trans);
    if (!path.feasible()) {
      const FaultMap* faults = model.faults();
      if (faults && (faults->aliveProcCount() == 0 ||
                     model.distances().partitioned())) {
        throw UnreachableError("referenceGomcds: faults cut every placement");
      }
      throw std::runtime_error("referenceGomcds: capacity infeasible");
    }
    for (WindowId w = 0; w < W; ++w) {
      const auto p =
          static_cast<ProcId>(path.nodes[static_cast<std::size_t>(w)]);
      if (!occupancy[static_cast<std::size_t>(w)].tryPlace(p)) {
        throw std::logic_error("referenceGomcds: path through a full slot");
      }
      schedule.setCenter(d, w, p);
    }
  }
  return schedule;
}

/// Which error a scheduling call threw: "unreachable" (UnreachableError),
/// "runtime" (any other std::runtime_error) or "none".
template <class Fn>
std::string thrownKind(const Fn& schedule) {
  try {
    (void)schedule();
  } catch (const UnreachableError&) {
    return "unreachable";
  } catch (const std::runtime_error&) {
    return "runtime";
  }
  return "none";
}

}  // namespace pimsched::testutil
