#include "fault/fault_map.hpp"

#include <stdexcept>

#include "obs/obs.hpp"
#include "pim/memory.hpp"

namespace pimsched {

namespace {

/// Deterministic 64-bit LCG so injections are identical across platforms
/// and standard libraries (same recurrence as tests/test_util.hpp).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

}  // namespace

FaultMap::FaultMap(const Grid& grid)
    : grid_(grid),
      deadProc_(static_cast<std::size_t>(grid.size()), 0),
      deadLink_(static_cast<std::size_t>(grid.size()) * 4, 0),
      capLimit_(static_cast<std::size_t>(grid.size()), -1) {}

std::size_t FaultMap::linkSlot(ProcId from, ProcId to) const {
  const Coord a = grid_.coord(from);
  const Coord b = grid_.coord(to);
  int dir = -1;
  if (b.row == a.row - 1 && b.col == a.col) dir = 0;
  else if (b.row == a.row + 1 && b.col == a.col) dir = 1;
  else if (b.col == a.col - 1 && b.row == a.row) dir = 2;
  else if (b.col == a.col + 1 && b.row == a.row) dir = 3;
  if (dir < 0) {
    throw std::invalid_argument("FaultMap: not a mesh link");
  }
  return static_cast<std::size_t>(from) * 4 + static_cast<std::size_t>(dir);
}

void FaultMap::killProc(ProcId p) {
  if (!grid_.contains(p)) {
    throw std::invalid_argument("FaultMap::killProc: processor outside grid");
  }
  auto& dead = deadProc_[static_cast<std::size_t>(p)];
  if (dead == 0) {
    dead = 1;
    ++deadProcs_;
    ++mutations_;
    PIMSCHED_COUNTER_ADD("fault.injected.procs", 1);
  }
}

void FaultMap::killLink(ProcId from, ProcId to) {
  if (!grid_.contains(from) || !grid_.contains(to)) {
    throw std::invalid_argument("FaultMap::killLink: processor outside grid");
  }
  auto& dead = deadLink_[linkSlot(from, to)];
  if (dead == 0) {
    dead = 1;
    ++deadLinks_;
    ++mutations_;
    PIMSCHED_COUNTER_ADD("fault.injected.links", 1);
  }
}

void FaultMap::killRow(int row) {
  if (row < 0 || row >= grid_.rows()) {
    throw std::invalid_argument("FaultMap::killRow: row outside grid");
  }
  for (int c = 0; c < grid_.cols(); ++c) killProc(grid_.id(row, c));
}

void FaultMap::killCol(int col) {
  if (col < 0 || col >= grid_.cols()) {
    throw std::invalid_argument("FaultMap::killCol: column outside grid");
  }
  for (int r = 0; r < grid_.rows(); ++r) killProc(grid_.id(r, col));
}

void FaultMap::killRegion(int r0, int c0, int r1, int c1) {
  if (r0 > r1 || c0 > c1 || r0 < 0 || c0 < 0 || r1 >= grid_.rows() ||
      c1 >= grid_.cols()) {
    throw std::invalid_argument("FaultMap::killRegion: region outside grid");
  }
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) killProc(grid_.id(r, c));
  }
}

void FaultMap::limitCapacity(ProcId p, std::int64_t slots) {
  if (!grid_.contains(p)) {
    throw std::invalid_argument(
        "FaultMap::limitCapacity: processor outside grid");
  }
  if (slots < 0) {
    throw std::invalid_argument("FaultMap::limitCapacity: slots must be >= 0");
  }
  auto& limit = capLimit_[static_cast<std::size_t>(p)];
  if (limit < 0 || slots < limit) {
    limit = slots;
    anyCapLimit_ = true;
    ++mutations_;
    PIMSCHED_COUNTER_ADD("fault.injected.caps", 1);
  }
}

void FaultMap::clear() {
  if (anyFaults()) ++mutations_;
  std::fill(deadProc_.begin(), deadProc_.end(), 0);
  std::fill(deadLink_.begin(), deadLink_.end(), 0);
  std::fill(capLimit_.begin(), capLimit_.end(), -1);
  deadProcs_ = 0;
  deadLinks_ = 0;
  anyCapLimit_ = false;
}

void FaultMap::injectUniformProcs(int count, std::uint64_t seed) {
  if (count < 0 || count > aliveProcCount()) {
    throw std::invalid_argument(
        "FaultMap::injectUniformProcs: count exceeds alive processors");
  }
  Lcg rng(seed);
  for (int k = 0; k < count; ++k) {
    ProcId p;
    do {
      p = static_cast<ProcId>(
          rng.below(static_cast<std::uint64_t>(grid_.size())));
    } while (procDead(p));
    killProc(p);
  }
}

void FaultMap::injectUniformLinks(int count, std::uint64_t seed) {
  // Enumerate directed links whose endpoints are both alive and that are
  // not already dead, then sample without replacement.
  std::vector<std::pair<ProcId, ProcId>> candidates;
  for (ProcId p = 0; p < grid_.size(); ++p) {
    if (procDead(p)) continue;
    for (const ProcId q : grid_.neighbors(p)) {
      if (!procDead(q) && deadLink_[linkSlot(p, q)] == 0) {
        candidates.emplace_back(p, q);
      }
    }
  }
  if (count < 0 || static_cast<std::size_t>(count) > candidates.size()) {
    throw std::invalid_argument(
        "FaultMap::injectUniformLinks: count exceeds alive links");
  }
  Lcg rng(seed);
  for (int k = 0; k < count; ++k) {
    const std::size_t i = rng.below(candidates.size());
    killLink(candidates[i].first, candidates[i].second);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

bool FaultMap::linkDead(ProcId from, ProcId to) const {
  return procDead(from) || procDead(to) || deadLink_[linkSlot(from, to)] != 0;
}

std::int64_t FaultMap::capacityLimit(ProcId p) const {
  if (procDead(p)) return 0;
  return capLimit_[static_cast<std::size_t>(p)];
}

std::string FaultMap::summary() const {
  int caps = 0;
  for (ProcId p = 0; p < grid_.size(); ++p) {
    if (procAlive(p) && capLimit_[static_cast<std::size_t>(p)] >= 0) ++caps;
  }
  return "procs=" + std::to_string(deadProcs_) +
         " links=" + std::to_string(deadLinks_) +
         " caps=" + std::to_string(caps);
}

void applyFaultCapacity(OccupancyMap& occupancy, const FaultMap& faults) {
  for (ProcId p = 0; p < faults.grid().size(); ++p) {
    const std::int64_t limit = faults.capacityLimit(p);
    if (limit >= 0) occupancy.limitCapacity(p, limit);
  }
}

}  // namespace pimsched
