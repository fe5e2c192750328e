#pragma once

// The one placement layer every scheduler fills its schedule through: the
// per-window memory occupancy (the paper's "each processor ... can hold a
// limited number of data"), the masked argmin that picks "the first
// available processor in the processor list" (Algorithm 1, lines 5-7) and
// the one rule that classifies a datum nothing can host.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "graph/layered_dag.hpp"
#include "pim/memory.hpp"
#include "trace/windowed_refs.hpp"
#include "util/aligned.hpp"

namespace pimsched {

/// Smallest (key(p), p) over processors p in [0, numProcs) with a finite
/// key and room(p); kNoProc when none exists. Equals the first such
/// processor of the stable ascending-key order (the paper's processor
/// list) without sorting: a strict < over ascending ids keeps the smallest
/// id among equal keys (docs/algorithms.md, "Argmin equals the stable-sort
/// head"). room is asked only for processors that would improve the
/// running best.
template <class KeyFn, class RoomFn>
[[nodiscard]] ProcId argminWithRoom(ProcId numProcs, const KeyFn& key,
                                    const RoomFn& room) {
  ProcId best = kNoProc;
  Cost bestKey = kInfiniteCost;
  for (ProcId p = 0; p < numProcs; ++p) {
    const Cost k = key(p);
    if (k < bestKey && room(p)) {
      best = p;
      bestKey = k;
    }
  }
  return best;
}

/// Occupancy and commit of one scheduling call: every window's
/// OccupancyMap (the capacity plus the model's fault capacity limits, so
/// dead processors hold nothing), mirrored as a W x P byte table of full
/// slots that masks and room checks read, the data in visit order and the
/// schedule being filled.
class Placement {
 public:
  Placement(const WindowedRefs& refs, const CostModel& model,
            std::int64_t capacity, DataOrder order);

  /// The data in visit order.
  [[nodiscard]] const std::vector<DataId>& order() const { return order_; }

  /// True when processor p has a free slot in window w.
  [[nodiscard]] bool hasRoom(WindowId w, ProcId p) const {
    return full_[slot(w, p)] == 0;
  }

  /// True when processor p has a free slot in every window of [begin, end).
  [[nodiscard]] bool roomEverywhere(ProcId p, WindowId begin,
                                    WindowId end) const {
    for (WindowId w = begin; w < end; ++w) {
      if (full_[slot(w, p)] != 0) return false;
    }
    return true;
  }

  /// True when every (window, center) slot of the feasible `path` still
  /// has room.
  [[nodiscard]] bool fits(const LayeredPath& path) const {
    for (std::size_t w = 0; w < path.nodes.size(); ++w) {
      if (full_[slot(static_cast<WindowId>(w),
                     static_cast<ProcId>(path.nodes[w]))] != 0) {
        return false;
      }
    }
    return true;
  }

  /// Sets every entry of the flat W x P table whose slot is full to
  /// kInfiniteCost.
  void mask(CostBuffer& costs) const;

  /// Sets row[p] to kInfiniteCost for every processor p that lacks room in
  /// some window of [begin, end).
  void mask(WindowId begin, WindowId end, Cost* row) const;

  /// Smallest (key(p), p) with a finite key and room in every window of
  /// [begin, end); kNoProc when none exists.
  template <class KeyFn>
  [[nodiscard]] ProcId argminWithRoom(WindowId begin, WindowId end,
                                      const KeyFn& key) const {
    return pimsched::argminWithRoom(
        static_cast<ProcId>(numProcs_), key,
        [&](ProcId p) { return roomEverywhere(p, begin, end); });
  }

  /// Claims one slot on p in window w and records p as datum d's center
  /// there. A full slot is a logic error: every caller picks from a mask
  /// or a room check.
  void place(DataId d, WindowId w, ProcId p) {
    OccupancyMap& occ = occupancy_[static_cast<std::size_t>(w)];
    if (!occ.tryPlace(p)) throwSlotFull(d, w, p);
    full_[slot(w, p)] = !occ.hasRoom(p);
    schedule_.setCenter(d, w, p);
  }

  /// Places datum d on every (window, center) of `path`; a path without a
  /// finite cost fails as `scheduler`.
  void commit(DataId d, const LayeredPath& path, const char* scheduler);

  /// The one infeasibility rule, for a datum that no processor can host:
  /// UnreachableError naming `scheduler` when the model is faulted and its
  /// alive mesh is empty or partitioned, CapacityInfeasibleError
  /// ("<scheduler>: capacity infeasible <detail>") otherwise.
  [[noreturn]] void fail(const char* scheduler, const char* detail) const;

  /// The schedule placed so far.
  [[nodiscard]] const DataSchedule& schedule() const { return schedule_; }

  /// The filled schedule.
  [[nodiscard]] DataSchedule finish() { return std::move(schedule_); }

 private:
  [[nodiscard]] std::size_t slot(WindowId w, ProcId p) const {
    return static_cast<std::size_t>(w) * numProcs_ +
           static_cast<std::size_t>(p);
  }

  [[noreturn]] void throwSlotFull(DataId d, WindowId w, ProcId p) const;

  const CostModel* model_;
  std::size_t numProcs_;
  std::vector<DataId> order_;
  std::vector<OccupancyMap> occupancy_;
  DataSchedule schedule_;
  /// [w * P + p]: no room on p in w. Allocated after schedule_, which
  /// outlives the Placement: in the other order stream-churn's peak RSS
  /// read about 0.2 MB higher.
  std::vector<unsigned char> full_;
};

}  // namespace pimsched
