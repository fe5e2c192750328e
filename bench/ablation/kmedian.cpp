#include "ablation/kmedian.hpp"

#include <algorithm>
#include <stdexcept>

#include "cost/center_costs.hpp"

namespace pimsched {

Cost nearestCenterCost(const CostModel& model,
                       std::span<const ProcWeight> refs,
                       std::span<const ProcId> centers) {
  if (refs.empty()) return 0;
  if (centers.empty()) {
    throw std::invalid_argument("nearestCenterCost: no centers");
  }
  const Grid& grid = model.grid();
  Cost total = 0;
  for (const ProcWeight& pw : refs) {
    int best = INT32_MAX;
    for (const ProcId c : centers) {
      best = std::min(best, grid.manhattan(c, pw.proc));
    }
    total += pw.weight * best;
  }
  return total * model.params().hopCost;
}

namespace {

/// Cost of serving each reference from min(current distance, dist to p).
Cost costWithExtra(const CostModel& model, std::span<const ProcWeight> refs,
                   const std::vector<int>& nearestDist, ProcId p) {
  const Grid& grid = model.grid();
  Cost total = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    total += refs[i].weight *
             std::min(nearestDist[i], grid.manhattan(p, refs[i].proc));
  }
  return total * model.params().hopCost;
}

void refreshNearest(const CostModel& model, std::span<const ProcWeight> refs,
                    const std::vector<ProcId>& centers,
                    std::vector<int>& nearestDist) {
  const Grid& grid = model.grid();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    int best = INT32_MAX;
    for (const ProcId c : centers) {
      best = std::min(best, grid.manhattan(c, refs[i].proc));
    }
    nearestDist[i] = best;
  }
}

}  // namespace

KMedianResult kMedian(const CostModel& model,
                      std::span<const ProcWeight> refs, int k) {
  if (k < 1) throw std::invalid_argument("kMedian: k must be >= 1");
  const Grid& grid = model.grid();
  const int m = grid.size();
  KMedianResult result;

  if (refs.empty()) {
    result.centers = {0};
    result.cost = 0;
    return result;
  }

  // Exact k = 1 seed via the separable weighted median.
  const BestCenter single = bestCenter(model, refs);
  result.centers = {single.proc};
  result.cost = single.cost;

  std::vector<int> nearestDist(refs.size());
  refreshNearest(model, refs, result.centers, nearestDist);

  // Greedy insertion: add the center with the largest marginal gain.
  while (static_cast<int>(result.centers.size()) < k) {
    Cost bestCost = result.cost;
    ProcId bestProc = kNoProc;
    for (ProcId p = 0; p < m; ++p) {
      if (std::find(result.centers.begin(), result.centers.end(), p) !=
          result.centers.end()) {
        continue;
      }
      const Cost c = costWithExtra(model, refs, nearestDist, p);
      if (c < bestCost) {
        bestCost = c;
        bestProc = p;
      }
    }
    if (bestProc == kNoProc) break;  // no further improvement possible
    result.centers.push_back(bestProc);
    result.cost = bestCost;
    refreshNearest(model, refs, result.centers, nearestDist);
  }

  // First-improvement swap local search.
  bool improved = true;
  int guard = 16 * m;  // cheap convergence bound; each swap strictly improves
  while (improved && guard-- > 0) {
    improved = false;
    for (std::size_t ci = 0; ci < result.centers.size() && !improved; ++ci) {
      for (ProcId p = 0; p < m && !improved; ++p) {
        if (std::find(result.centers.begin(), result.centers.end(), p) !=
            result.centers.end()) {
          continue;
        }
        std::vector<ProcId> candidate = result.centers;
        candidate[ci] = p;
        const Cost c = nearestCenterCost(model, refs, candidate);
        if (c < result.cost) {
          result.centers = std::move(candidate);
          result.cost = c;
          improved = true;
        }
      }
    }
  }

  std::sort(result.centers.begin(), result.centers.end());
  return result;
}

}  // namespace pimsched
