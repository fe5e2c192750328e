#include "graph/mesh_links.hpp"

namespace pimsched {

MeshLinks::MeshLinks(const DistanceMap& distances)
    : distances_(&distances),
      masks_(static_cast<std::size_t>(distances.grid().size()), 0) {
  const Grid& grid = distances.grid();
  const FaultMap& faults = distances.faults();
  const int R = grid.rows();
  const int C = grid.cols();
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      const ProcId p = r * C + c;
      if (!distances.alive(p)) continue;
      const auto usable = [&](ProcId from) {
        return distances.alive(from) && !faults.linkDead(from, p);
      };
      std::uint8_t m = kAlive;
      if (r > 0 && usable(p - C)) m |= kFromN;
      if (r + 1 < R && usable(p + C)) m |= kFromS;
      if (c > 0 && usable(p - 1)) m |= kFromW;
      if (c + 1 < C && usable(p + 1)) m |= kFromE;
      masks_[static_cast<std::size_t>(p)] = m;
    }
  }
}

}  // namespace pimsched
