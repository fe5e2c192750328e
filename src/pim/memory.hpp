#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pim/grid.hpp"
#include "pim/types.hpp"

namespace pimsched {

/// Tracks how many data slots are in use on every processor, enforcing a
/// uniform per-processor capacity. This realises the paper's memory
/// constraint: "each processor in the processor array can hold a limited
/// number of data", with the experiments using capacity = 2x the minimum.
class OccupancyMap {
 public:
  /// capacityPerProc < 0 means unlimited.
  OccupancyMap(const Grid& grid, std::int64_t capacityPerProc);

  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] bool unlimited() const { return capacity_ < 0; }

  /// Slots currently used on processor p.
  [[nodiscard]] std::int64_t used(ProcId p) const {
    return used_[static_cast<std::size_t>(p)];
  }

  /// Effective slot bound on processor p: the uniform capacity tightened
  /// by any per-processor limit. Negative means unlimited.
  [[nodiscard]] std::int64_t capacityOf(ProcId p) const {
    if (limits_.empty()) return capacity_;
    const std::int64_t limit = limits_[static_cast<std::size_t>(p)];
    if (limit < 0) return capacity_;
    return capacity_ < 0 ? limit : std::min(capacity_, limit);
  }

  /// Tightens the slot bound of processor p to `cap` (>= 0). Used by
  /// fault injection to model reduced (or zero, for dead processors)
  /// memory; the bound only ever shrinks via this call.
  void limitCapacity(ProcId p, std::int64_t cap);

  /// True if processor p can accept one more datum.
  [[nodiscard]] bool hasRoom(ProcId p) const {
    const std::int64_t cap = capacityOf(p);
    return cap < 0 || used(p) < cap;
  }

  /// Claims one slot on p. Returns false (and changes nothing) if full.
  bool tryPlace(ProcId p) {
    if (!hasRoom(p)) return false;
    ++used_[static_cast<std::size_t>(p)];
    return true;
  }

 private:
  std::int64_t capacity_;
  std::vector<std::int64_t> used_;
  std::vector<std::int64_t> limits_;  ///< lazily sized; -1 = no per-proc bound
};

/// The experiment convention from the paper's evaluation: each processor's
/// memory is twice the minimum needed, i.e. 2 * ceil(numData / numProcs).
[[nodiscard]] std::int64_t paperCapacity(const Grid& grid,
                                         std::int64_t numData);

}  // namespace pimsched
