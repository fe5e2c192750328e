#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pim/grid.hpp"
#include "pim/routing.hpp"
#include "pim/types.hpp"

namespace pimsched {

class OccupancyMap;

/// Thrown when the faulted mesh cannot carry required traffic: a route
/// endpoint is dead, or the alive sub-mesh is partitioned between two
/// processors that must communicate. Derives std::runtime_error so
/// fault-oblivious callers degrade to a generic failure instead of
/// crashing; fault-aware callers catch the type to report structured
/// "unreachable" outcomes (see docs/fault-tolerance.md).
class UnreachableError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a scheduler runs out of memory slots: every processor that
/// could host a datum is full. Unlike UnreachableError, a larger capacity
/// would make the same input schedulable; callers report it as
/// "infeasible".
class CapacityInfeasibleError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The fault state of a PIM array: dead processors, dead *directed* links
/// and optional reduced per-processor memory capacity, layered over (a copy
/// of) a Grid. A dead processor implicitly kills every link touching it.
///
/// Deterministic seeded injectors (uniform random, row/column kill,
/// region kill) build reproducible fault scenarios; fault_trace.hpp adds
/// a text format so faults can arrive at a given execution step.
class FaultMap {
 public:
  explicit FaultMap(const Grid& grid);

  [[nodiscard]] const Grid& grid() const { return grid_; }

  /// --- mutation ---------------------------------------------------------
  void killProc(ProcId p);
  /// Kills the directed link from -> to (must be mesh-adjacent).
  void killLink(ProcId from, ProcId to);
  void killRow(int row);
  void killCol(int col);
  /// Kills every processor with r0 <= row <= r1 and c0 <= col <= c1.
  void killRegion(int r0, int c0, int r1, int c1);
  /// Caps processor p at `slots` data (>= 0); tightens only (the limit
  /// never grows back via this call).
  void limitCapacity(ProcId p, std::int64_t slots);
  /// Removes every fault.
  void clear();

  /// Kills `count` distinct still-alive processors chosen by a seeded
  /// deterministic generator. Throws std::invalid_argument if fewer than
  /// `count` alive processors remain.
  void injectUniformProcs(int count, std::uint64_t seed);
  /// Kills `count` distinct still-alive directed links (both endpoints
  /// alive at injection time) chosen by a seeded deterministic generator.
  void injectUniformLinks(int count, std::uint64_t seed);

  /// --- queries ----------------------------------------------------------
  [[nodiscard]] bool procDead(ProcId p) const {
    return deadProc_[static_cast<std::size_t>(p)] != 0;
  }
  [[nodiscard]] bool procAlive(ProcId p) const { return !procDead(p); }
  /// True when the directed hop from -> to is unusable (either endpoint
  /// dead, or the link itself killed). from/to must be mesh-adjacent.
  [[nodiscard]] bool linkDead(ProcId from, ProcId to) const;
  /// Per-processor slot bound: 0 for dead processors, the reduced limit
  /// where one was set, -1 (no fault bound) otherwise.
  [[nodiscard]] std::int64_t capacityLimit(ProcId p) const;

  [[nodiscard]] int deadProcCount() const { return deadProcs_; }
  [[nodiscard]] int deadLinkCount() const { return deadLinks_; }
  /// Monotonic count of state changes: bumps once per processor newly
  /// killed, link newly killed, capacity bound newly tightened, and per
  /// clear() that removed anything. A mutation call that leaves the map
  /// unchanged (re-killing a dead processor, capping above the current
  /// bound) does not bump it — applyFaultSpec uses this to detect
  /// duplicate specs.
  [[nodiscard]] std::int64_t mutations() const { return mutations_; }
  [[nodiscard]] int aliveProcCount() const { return grid_.size() - deadProcs_; }
  [[nodiscard]] bool anyFaults() const {
    return deadProcs_ > 0 || deadLinks_ > 0 || anyCapLimit_;
  }

  /// 0/1 per processor, indexed by ProcId — the mask WindowedRefs::
  /// withProcsMasked consumes to drop references issued by dead
  /// processors.
  [[nodiscard]] const std::vector<char>& deadProcMask() const {
    return deadProc_;
  }

  /// Canonical one-line summary ("procs=2 links=1 caps=0"), used in error
  /// messages and logs.
  [[nodiscard]] std::string summary() const;

 private:
  /// Dense slot of the directed link from `from` toward mesh direction
  /// 0=N 1=S 2=W 3=E (same convention as the NoC simulator).
  [[nodiscard]] std::size_t linkSlot(ProcId from, ProcId to) const;

  Grid grid_;  ///< a copy, so a copied FaultMap never dangles
  std::vector<char> deadProc_;
  std::vector<char> deadLink_;       ///< grid.size() * 4, direction-indexed
  std::vector<std::int64_t> capLimit_;  ///< -1 = no fault bound
  int deadProcs_ = 0;
  int deadLinks_ = 0;
  bool anyCapLimit_ = false;
  std::int64_t mutations_ = 0;
};

/// Applies a FaultMap's per-processor bounds to an occupancy map: dead
/// processors get capacity 0, capacity-limited processors get their
/// reduced bound (see CostModel::occupancy).
void applyFaultCapacity(OccupancyMap& occupancy, const FaultMap& faults);

}  // namespace pimsched
