#include "core/placement.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/data_order.hpp"
#include "fault/fault_map.hpp"
#include "graph/simd/simd_kernels.hpp"

namespace pimsched {

Placement::Placement(const WindowedRefs& refs, const CostModel& model,
                     std::int64_t capacity, DataOrder order)
    : model_(&model),
      numProcs_(static_cast<std::size_t>(model.grid().size())),
      order_(dataVisitOrder(refs, order)),
      occupancy_(static_cast<std::size_t>(refs.numWindows()),
                 model.occupancy(capacity)),
      schedule_(refs.numData(), refs.numWindows()),
      full_(occupancy_.size() * numProcs_) {
  // Every window starts from the same map: build window 0's row, copy it.
  if (occupancy_.empty()) return;
  const auto row0 = full_.begin();
  for (std::size_t p = 0; p < numProcs_; ++p) {
    row0[static_cast<std::ptrdiff_t>(p)] =
        !occupancy_.front().hasRoom(static_cast<ProcId>(p));
  }
  for (std::size_t w = 1; w < occupancy_.size(); ++w) {
    std::copy_n(row0, numProcs_,
                full_.begin() + static_cast<std::ptrdiff_t>(w * numProcs_));
  }
}

void Placement::mask(CostBuffer& costs) const {
  simd::active().maskInf(full_.data(), costs.data(), costs.size());
}

void Placement::mask(WindowId begin, WindowId end, Cost* row) const {
  for (WindowId w = begin; w < end; ++w) {
    simd::active().maskInf(full_.data() + slot(w, 0), row, numProcs_);
  }
}

void Placement::commit(DataId d, const LayeredPath& path,
                       const char* scheduler) {
  if (!path.feasible()) fail(scheduler, "(no placement path)");
  for (std::size_t w = 0; w < path.nodes.size(); ++w) {
    place(d, static_cast<WindowId>(w), static_cast<ProcId>(path.nodes[w]));
  }
}

void Placement::fail(const char* scheduler, const char* detail) const {
  // An empty or partitioned alive mesh is what leaves a datum with no
  // host when slots remain; running out of slots is what leaves it
  // without one on a connected mesh.
  if (const FaultMap* faults = model_->faults()) {
    if (faults->aliveProcCount() == 0 || model_->distances().partitioned()) {
      throw UnreachableError(std::string(scheduler) +
                             ": faulted mesh cannot host data (" +
                             faults->summary() + ")");
    }
  }
  throw CapacityInfeasibleError(std::string(scheduler) +
                                ": capacity infeasible " + detail);
}

void Placement::throwSlotFull(DataId d, WindowId w, ProcId p) const {
  const OccupancyMap& occ = occupancy_[static_cast<std::size_t>(w)];
  throw std::logic_error(
      "Placement: datum " + std::to_string(d) + " placed on full processor " +
      std::to_string(p) + " in window " + std::to_string(w) + " (used " +
      std::to_string(occ.used(p)) + "/" + std::to_string(occ.capacityOf(p)) +
      ")");
}

}  // namespace pimsched
