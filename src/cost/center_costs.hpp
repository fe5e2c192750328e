#pragma once

#include <span>
#include <vector>

#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"
#include "util/aligned.hpp"

namespace pimsched {

/// Serving cost of a reference string at every candidate center, i.e. the
/// quantity Algorithm 1 computes for "each processor node j".
///
/// Two implementations with identical results:
///  * bruteForceCenterCosts — O(numProcs * |refs|), the literal reading of
///    Algorithm 1 lines 2-4;
///  * separableCenterCosts — O(|refs| + rows + cols + numProcs), exploiting
///    that Manhattan distance separates into row and column terms, so
///    cost(r, c) = f_row(r) + f_col(c) with each axis solvable by prefix
///    sums over a weight histogram (the 1-D weighted-median trick).
///
/// The *Into variants write into a caller-owned buffer, so hot loops fill
/// their own rows in place instead of returning a fresh vector per
/// (datum, window). Every variant counts one `cost.center_eval_calls` per
/// row it builds; nothing is memoized, so that counter is the number of
/// serving-cost rows a scheduling call computed.
///
/// When the model is fault-aware (carries a DistanceMap), every variant
/// instead prices centers by fault-aware hop distance; dead processors
/// and centers that cannot reach some referencing processor cost
/// kInfiniteCost, which downstream feasibility checks treat as forbidden.
[[nodiscard]] std::vector<Cost> bruteForceCenterCosts(
    const CostModel& model, std::span<const ProcWeight> refs);

[[nodiscard]] std::vector<Cost> separableCenterCosts(
    const CostModel& model, std::span<const ProcWeight> refs);

/// Writes the row into `out`, which must hold exactly one entry per
/// processor (std::invalid_argument otherwise).
void separableCenterCostsInto(const CostModel& model,
                              std::span<const ProcWeight> refs,
                              std::span<Cost> out);

/// As above, resizing `out` to the grid size first.
void separableCenterCostsInto(const CostModel& model,
                              std::span<const ProcWeight> refs,
                              std::vector<Cost>& out);

/// Datum d's flat numWindows x numProcs serving-cost table (row w at
/// offset w * P, the window-w row of separableCenterCostsInto), resized to
/// fit: the node costs of d's GOMCDS cost-graph.
void datumCenterCostsInto(const WindowedRefs& refs, const CostModel& model,
                          DataId d, CostBuffer& out);

/// The minimum-cost center (ties -> smallest ProcId) and its cost.
struct BestCenter {
  ProcId proc = kNoProc;
  Cost cost = 0;
};
[[nodiscard]] BestCenter bestCenter(const CostModel& model,
                                    std::span<const ProcWeight> refs);

/// The row and column marginals of the serving cost on a healthy mesh:
/// with x-y routing, serving `refs` from (r, c) costs rowOut[r] + colOut[c],
/// where rowOut[r] = hopCost * sum of weight * |r - ref row| and colOut
/// likewise over columns. O(|refs| + rows + cols), no allocation; rowOut
/// holds grid.rows() entries and colOut grid.cols(). Both the P-wide
/// separableCenterCostsInto fill and the separable GOMCDS solve
/// (LayeredDagSolver::solveSeparableInto) read these marginals. Ignores
/// any fault state: call it only for models without a DistanceMap.
void separableAxisCostsInto(const Grid& grid, Cost hopCost,
                            std::span<const ProcWeight> refs,
                            std::span<Cost> rowOut, std::span<Cost> colOut);

/// The serving-cost row those marginals describe: out[r * C + c] =
/// rowCosts[r] + colCosts[c] for C = colCosts.size() (out holds
/// rowCosts.size() * C entries). separableCenterCostsInto fills its rows
/// this way, so a row built here from separableAxisCostsInto's output is
/// bit-identical to it.
void separableSumInto(std::span<const Cost> rowCosts,
                      std::span<const Cost> colCosts, std::span<Cost> out);

/// 1-D helper exposed for testing and for Lemma 1: the weighted L1 cost
/// f(x) = sum_k hist[k]-weighted |x - k| for every x in [0, n). `hist` maps
/// axis position -> total weight.
[[nodiscard]] std::vector<Cost> axisCosts(std::span<const Cost> hist);

}  // namespace pimsched
