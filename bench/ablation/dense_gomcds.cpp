#include "ablation/dense_gomcds.hpp"

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/gomcds_detail.hpp"
#include "core/placement.hpp"
#include "cost/center_costs.hpp"
#include "graph/layered_dag.hpp"
#include "util/aligned.hpp"

namespace pimsched {

DataSchedule scheduleDenseGomcds(const WindowedRefs& refs,
                                 const CostModel& model,
                                 const SchedulerOptions& options) {
  if (!detail::staticForbiddenSet(model, options)) {
    throw std::invalid_argument(
        "scheduleDenseGomcds: needs a static forbidden set (unlimited "
        "capacity, no alive processor with a fault capacity limit)");
  }
  const int W = refs.numWindows();
  const int P = model.grid().size();
  const std::size_t m = static_cast<std::size_t>(P);
  // Rows by source: fault distances can be asymmetric.
  std::vector<Cost> trans(m * m);
  for (ProcId q = 0; q < P; ++q) {
    for (ProcId p = 0; p < P; ++p) {
      trans[static_cast<std::size_t>(q) * m + static_cast<std::size_t>(p)] =
          model.moveCost(q, p);
    }
  }

  const detail::DedupClasses classes = detail::computeDedupClasses(refs);
  std::vector<LayeredPath> paths(classes.rep.size());
  CostBuffer serve;
  LayeredDagScratch scratch;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    datumCenterCostsInto(refs, model, classes.rep[k], serve);
    LayeredDagSolver::solveFlatInto(W, P, serve, trans, scratch, paths[k]);
  }

  Placement placement(refs, model, options.capacity, options.order);
  for (const DataId d : placement.order()) {
    placement.commit(d,
                     paths[static_cast<std::size_t>(
                         classes.classOf[static_cast<std::size_t>(d)])],
                     "scheduleDenseGomcds");
  }
  return placement.finish();
}

}  // namespace pimsched
