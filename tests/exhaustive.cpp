#include "exhaustive.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cost/center_costs.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "util/aligned.hpp"

namespace pimsched {

DataSchedule scheduleExhaustive(const WindowedRefs& refs,
                                const CostModel& model,
                                std::uint64_t maxCombinations) {
  const int W = refs.numWindows();
  const int m = refs.numProcs();

  std::uint64_t combos = 1;
  for (int w = 0; w < W; ++w) {
    combos *= static_cast<std::uint64_t>(m);
    if (combos > maxCombinations) {
      throw std::invalid_argument(
          "scheduleExhaustive: instance too large to enumerate");
    }
  }

  DataSchedule schedule(refs.numData(), W);
  CostBuffer serve;  // W x P serving costs of one datum
  std::vector<ProcId> seq(static_cast<std::size_t>(W), 0);
  std::vector<ProcId> bestSeq;
  for (DataId d = 0; d < refs.numData(); ++d) {
    datumCenterCostsInto(refs, model, d, serve);
    Cost best = kInfiniteCost;
    bestSeq.clear();
    std::fill(seq.begin(), seq.end(), 0);
    while (true) {
      // Saturating: a dead or cut-off center costs kInfiniteCost, and a
      // few such terms would overflow a plain sum into a negative total.
      Cost total = 0;
      for (WindowId w = 0; w < W; ++w) {
        const ProcId p = seq[static_cast<std::size_t>(w)];
        total = satAdd(total, serve[static_cast<std::size_t>(w) *
                                        static_cast<std::size_t>(m) +
                                    static_cast<std::size_t>(p)]);
        if (w > 0) {
          total = satAdd(
              total, model.moveCost(seq[static_cast<std::size_t>(w - 1)], p));
        }
      }
      if (total < best) {
        best = total;
        bestSeq = seq;
      }
      // Odometer increment.
      int w = W - 1;
      while (w >= 0 && ++seq[static_cast<std::size_t>(w)] == m) {
        seq[static_cast<std::size_t>(w)] = 0;
        --w;
      }
      if (w < 0) break;
    }
    if (bestSeq.empty()) {
      throw UnreachableError(
          "scheduleExhaustive: no finite-cost center sequence for datum " +
          std::to_string(d));
    }
    for (WindowId w = 0; w < W; ++w) {
      schedule.setCenter(d, w, bestSeq[static_cast<std::size_t>(w)]);
    }
  }
  return schedule;
}

}  // namespace pimsched
