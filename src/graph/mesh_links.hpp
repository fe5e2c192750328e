#pragma once

#include <cstdint>
#include <vector>

#include "fault/distance_map.hpp"
#include "pim/grid.hpp"
#include "pim/types.hpp"

namespace pimsched {

/// The alive directed mesh of a faulted grid, in the grid-shaped form the
/// mesh relax kernel (meshMinPlusInto, LayeredDagSolver::
/// solveMeshFlatResumeInto) sweeps: one byte per processor holding kAlive
/// when the processor is alive, and one kFrom* bit per mesh direction whose
/// link *into* the processor is usable (both endpoints alive, the directed
/// link not killed). These are exactly the edges the DistanceMap BFS walks,
/// so shortest paths over the masks are the DistanceMap's hop distances.
///
/// Built once per scheduling call in O(P). Keeps a pointer to the
/// DistanceMap it was built from — the kernel's path reconstruction reads
/// hop distances from it — so the map must outlive this object.
class MeshLinks {
 public:
  static constexpr std::uint8_t kFromN = 1;  ///< link (r-1, c) -> (r, c)
  static constexpr std::uint8_t kFromS = 2;  ///< link (r+1, c) -> (r, c)
  static constexpr std::uint8_t kFromW = 4;  ///< link (r, c-1) -> (r, c)
  static constexpr std::uint8_t kFromE = 8;  ///< link (r, c+1) -> (r, c)
  static constexpr std::uint8_t kAlive = 16;

  explicit MeshLinks(const DistanceMap& distances);

  [[nodiscard]] const Grid& grid() const { return distances_->grid(); }
  [[nodiscard]] const DistanceMap& distances() const { return *distances_; }

  /// Row-major masks, one per processor.
  [[nodiscard]] const std::uint8_t* masks() const { return masks_.data(); }

 private:
  const DistanceMap* distances_;
  std::vector<std::uint8_t> masks_;
};

}  // namespace pimsched
