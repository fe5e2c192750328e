#include "core/online.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/gomcds_detail.hpp"
#include "core/placement.hpp"
#include "cost/center_costs.hpp"
#include "graph/layered_dag.hpp"
#include "util/aligned.hpp"

namespace pimsched {

DataSchedule scheduleOnline(const WindowedRefs& refs, const CostModel& model,
                            const OnlineOptions& options) {
  if (options.lookahead < 0) {
    throw std::invalid_argument("scheduleOnline: negative lookahead");
  }
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  Placement placement(refs, model, options.capacity, options.order);

  const std::size_t m = static_cast<std::size_t>(grid.size());
  // Chamfer on a healthy mesh, the fault-aware mesh sweeps on a faulted
  // one: in-horizon movement is priced like GOMCDS prices it.
  const detail::LayerKernel kernel(model);
  CostBuffer serve;  // W x P serving costs of one datum
  LayeredDagScratch scratch;
  LayeredPath path;
  for (const DataId d : placement.order()) {
    datumCenterCostsInto(refs, model, d, serve);

    ProcId prev = kNoProc;
    for (WindowId w = 0; w < W; ++w) {
      const int horizon =
          std::min<int>(W - w, options.lookahead + 1);
      // Layer l of the horizon DP is window w + l, read from the serve
      // table in place; row w is never read again, so it takes layer 0's
      // node costs: the committed previous center enters as a movement
      // term. Capacity: only the window being committed must have room —
      // future windows' slots are not reserved (they will be re-checked
      // when committed), matching an online system that cannot reserve
      // the future.
      Cost* first = serve.data() + static_cast<std::size_t>(w) * m;
      for (ProcId p = 0; p < static_cast<ProcId>(m); ++p) {
        if (!placement.hasRoom(w, p)) {
          first[p] = kInfiniteCost;
        } else if (prev != kNoProc) {
          first[p] = satAdd(first[p], model.moveCost(prev, p));
        }
      }
      kernel.solve(
          horizon,
          std::span<const Cost>(first, static_cast<std::size_t>(horizon) * m),
          scratch, path);
      if (!path.feasible()) placement.fail("scheduleOnline", "(window full)");
      const auto chosen = static_cast<ProcId>(path.nodes[0]);
      placement.place(d, w, chosen);
      prev = chosen;
    }
  }
  return placement.finish();
}

}  // namespace pimsched
