#pragma once

#include <cassert>
#include <compare>
#include <cstdlib>
#include <iosfwd>
#include <vector>

#include "pim/types.hpp"

namespace pimsched {

/// A position in the 2-D processor grid.
struct Coord {
  int row = 0;
  int col = 0;

  friend auto operator<=>(const Coord&, const Coord&) = default;
};

std::ostream& operator<<(std::ostream& os, const Coord& c);

/// Upper bound on rows * cols. Keeps ProcId arithmetic comfortably inside
/// int32 and bounds the memory of per-processor tables; Grid's constructor
/// rejects larger products with std::invalid_argument.
inline constexpr long long kMaxProcs = 1LL << 24;

/// The PIM processor array: a rows x cols mesh with unit-cost links between
/// 4-neighbours and dimension-ordered (x-y) routing. This is the topology the
/// paper assumes throughout; the communication distance between two
/// processors is the Manhattan distance.
class Grid {
 public:
  /// Constructs a rows x cols grid. Both dimensions must be >= 1.
  Grid(int rows, int cols);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  /// Number of processors.
  [[nodiscard]] int size() const { return rows_ * cols_; }

  /// Coordinate of a flattened processor id (row-major).
  [[nodiscard]] Coord coord(ProcId p) const {
    assert(contains(p));
    return Coord{p / cols_, p % cols_};
  }

  /// Flattened id of a coordinate.
  [[nodiscard]] ProcId id(Coord c) const {
    assert(contains(c));
    return static_cast<ProcId>(c.row * cols_ + c.col);
  }

  /// Flattened id of (row, col).
  [[nodiscard]] ProcId id(int row, int col) const {
    return id(Coord{row, col});
  }

  [[nodiscard]] bool contains(ProcId p) const { return p >= 0 && p < size(); }
  [[nodiscard]] bool contains(Coord c) const {
    return c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_;
  }

  /// Hop distance under x-y routing: |dr| + |dc|.
  [[nodiscard]] int manhattan(ProcId a, ProcId b) const {
    const Coord ca = coord(a);
    const Coord cb = coord(b);
    return std::abs(ca.row - cb.row) + std::abs(ca.col - cb.col);
  }

  /// The 2-4 mesh neighbours of a processor, in N/S/W/E order.
  [[nodiscard]] std::vector<ProcId> neighbors(ProcId p) const;

 private:
  int rows_;
  int cols_;
};

/// Largest per-hop move cost beta (hopCost * moveVolume) a model on `grid`
/// may carry. The chamfer solver's branch-free sweeps let a forbidden
/// (kInfiniteCost) cell drift up to 2(R+C)+2 beta-steps before their final
/// clamp, so beta * (2(R+C)+2) must stay at or below INT64_MAX -
/// kInfiniteCost. CostModel's constructors and the chamfer entry points
/// (graph/layered_dag.hpp) reject a larger beta with std::invalid_argument.
[[nodiscard]] inline Cost maxChamferBeta(const Grid& grid) {
  const Cost steps = 2 * static_cast<Cost>(grid.rows() + grid.cols()) + 2;
  return (INT64_MAX - kInfiniteCost) / steps;
}

}  // namespace pimsched
