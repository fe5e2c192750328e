#include "cost/center_costs.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "obs/obs.hpp"

namespace pimsched {

std::vector<Cost> bruteForceCenterCosts(const CostModel& model,
                                        std::span<const ProcWeight> refs) {
  PIMSCHED_COUNTER_ADD("cost.center_eval_calls", 1);
  const int m = model.grid().size();
  std::vector<Cost> costs(static_cast<std::size_t>(m));
  for (ProcId p = 0; p < m; ++p) {
    costs[static_cast<std::size_t>(p)] = model.serveCost(refs, p);
  }
  return costs;
}

namespace {

/// In-place weighted L1 transform of one axis: on entry `f` holds the
/// weight histogram, on exit f[x] = scale * sum_k hist[k] * |x - k|. Uses
/// f(x + 1) = f(x) + weight(<= x) - weight(> x), so one read of hist[x]
/// before it is overwritten suffices.
void axisCostsInPlace(std::span<Cost> f, Cost scale) {
  Cost total = 0;
  Cost atZero = 0;  // f(0) = sum_k hist[k] * k
  for (std::size_t k = 0; k < f.size(); ++k) {
    total += f[k];
    atZero += f[k] * static_cast<Cost>(k);
  }
  Cost value = atZero;
  Cost weightUpTo = 0;
  for (std::size_t x = 0; x < f.size(); ++x) {
    weightUpTo += f[x];
    f[x] = scale * value;
    if (x + 1 < f.size()) value += weightUpTo - (total - weightUpTo);
  }
}

}  // namespace

std::vector<Cost> axisCosts(std::span<const Cost> hist) {
  std::vector<Cost> f(hist.begin(), hist.end());
  axisCostsInPlace(f, 1);
  return f;
}

void separableAxisCostsInto(const Grid& grid, Cost hopCost,
                            std::span<const ProcWeight> refs,
                            std::span<Cost> rowOut, std::span<Cost> colOut) {
  std::fill(rowOut.begin(), rowOut.end(), 0);
  std::fill(colOut.begin(), colOut.end(), 0);
  const int C = grid.cols();
  for (const ProcWeight& pw : refs) {
    rowOut[static_cast<std::size_t>(pw.proc / C)] += pw.weight;
    colOut[static_cast<std::size_t>(pw.proc % C)] += pw.weight;
  }
  axisCostsInPlace(rowOut, hopCost);
  axisCostsInPlace(colOut, hopCost);
}

namespace {

/// Fault-aware table: serveCost per center read off the DistanceMap. Dead
/// centers are kInfiniteCost even for empty reference strings — a datum
/// may never be placed on a dead processor, whether or not anyone reads
/// it this window. On a DistanceMap of an empty FaultMap every distance
/// equals the Manhattan distance, so this produces the same integers the
/// separable sweep does.
void faultCenterCostsInto(const CostModel& model,
                          std::span<const ProcWeight> refs,
                          std::span<Cost> out) {
  const DistanceMap& distances = model.distances();
  const int m = model.grid().size();
  const Cost hop = model.params().hopCost;
  for (ProcId p = 0; p < m; ++p) {
    if (!distances.alive(p)) {
      out[static_cast<std::size_t>(p)] = kInfiniteCost;
      continue;
    }
    Cost sum = 0;
    for (const ProcWeight& pw : refs) {
      const Cost d = distances.hopDistance(p, pw.proc);
      if (d >= kInfiniteCost) {
        sum = kInfiniteCost;
        break;
      }
      sum += pw.weight * d;
    }
    out[static_cast<std::size_t>(p)] =
        sum >= kInfiniteCost ? kInfiniteCost : sum * hop;
  }
}

}  // namespace

void separableCenterCostsInto(const CostModel& model,
                              std::span<const ProcWeight> refs,
                              std::span<Cost> out) {
  PIMSCHED_COUNTER_ADD("cost.center_eval_calls", 1);
  const Grid& grid = model.grid();
  if (out.size() != static_cast<std::size_t>(grid.size())) {
    throw std::invalid_argument(
        "separableCenterCostsInto: output row is not one entry per processor");
  }
  if (model.faultAware()) {
    faultCenterCostsInto(model, refs, out);
    return;
  }
  const std::size_t R = static_cast<std::size_t>(grid.rows());
  const std::size_t C = static_cast<std::size_t>(grid.cols());
  // Per-thread marginals: hot loops call this once per (datum, window).
  thread_local std::vector<Cost> axes;
  axes.resize(R + C);
  const std::span<Cost> fRow(axes.data(), R);
  const std::span<Cost> fCol(axes.data() + R, C);
  separableAxisCostsInto(grid, model.params().hopCost, refs, fRow, fCol);
  separableSumInto(fRow, fCol, out);
}

void separableCenterCostsInto(const CostModel& model,
                              std::span<const ProcWeight> refs,
                              std::vector<Cost>& out) {
  out.resize(static_cast<std::size_t>(model.grid().size()));
  separableCenterCostsInto(model, refs, std::span<Cost>(out));
}

void datumCenterCostsInto(const WindowedRefs& refs, const CostModel& model,
                          DataId d, CostBuffer& out) {
  const std::size_t P = static_cast<std::size_t>(refs.numProcs());
  out.resize(static_cast<std::size_t>(refs.numWindows()) * P);
  for (WindowId w = 0; w < refs.numWindows(); ++w) {
    separableCenterCostsInto(
        model, refs.refs(d, w),
        std::span<Cost>(out.data() + static_cast<std::size_t>(w) * P, P));
  }
}

void separableSumInto(std::span<const Cost> rowCosts,
                      std::span<const Cost> colCosts, std::span<Cost> out) {
  const std::size_t C = colCosts.size();
  for (std::size_t r = 0; r < rowCosts.size(); ++r) {
    Cost* row = out.data() + r * C;
    for (std::size_t c = 0; c < C; ++c) row[c] = rowCosts[r] + colCosts[c];
  }
}

std::vector<Cost> separableCenterCosts(const CostModel& model,
                                       std::span<const ProcWeight> refs) {
  std::vector<Cost> costs;
  separableCenterCostsInto(model, refs, costs);
  return costs;
}

BestCenter bestCenter(const CostModel& model,
                      std::span<const ProcWeight> refs) {
  const std::vector<Cost> costs = separableCenterCosts(model, refs);
  const auto it = std::min_element(costs.begin(), costs.end());
  return BestCenter{static_cast<ProcId>(it - costs.begin()), *it};
}

}  // namespace pimsched
