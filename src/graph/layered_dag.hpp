#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pim/grid.hpp"
#include "pim/types.hpp"
#include "util/aligned.hpp"

namespace pimsched {

class MeshLinks;

/// Saturating add that keeps kInfiniteCost absorbing.
[[nodiscard]] inline Cost satAdd(Cost a, Cost b) {
  if (a >= kInfiniteCost || b >= kInfiniteCost) return kInfiniteCost;
  return a + b;
}

/// A minimum-cost path through a layered DAG: one node per layer.
struct LayeredPath {
  std::vector<int> nodes;  ///< chosen node in each layer; empty if infeasible
  Cost total = kInfiniteCost;

  [[nodiscard]] bool feasible() const { return total < kInfiniteCost; }
};

/// Reusable scratch for the flat solver kernels: grow-only buffers that hold
/// the dp table and one relaxed layer. Hand one instance per thread (see
/// workerScratch in util/thread_pool.hpp) and steady-state solves make zero
/// heap allocations. Buffers are CostBuffer (64-byte aligned, see
/// util/aligned.hpp) so the SIMD sweeps start on cache-line boundaries.
struct LayeredDagScratch {
  CostBuffer dp;       ///< numLayers x numNodes dp table
  CostBuffer relaxed;  ///< one min-plus-relaxed layer
};

/// Memoized predecessor cache for the warm-start (resume) solvers: a
/// numLayers x numNodes table where entry [w * N + p] is the predecessor
/// the backward argmin scan resolved for node p in layer w, or -1 when
/// that (layer, node) has never been scanned against the current dp rows.
/// The predecessor of (w, p) is a pure function of dp row w-1 and the
/// transition costs (the scan's target minus node cost (w, p) is the
/// relaxed value, which row w-1 alone determines), so a cached entry stays
/// valid exactly as long as the retained dp row below it — a resume from
/// fromLayer re-relaxes dp rows [fromLayer, numLayers), so the resume
/// solvers invalidate cache rows [fromLayer + 1, numLayers) on entry and
/// fill entries lazily during reconstruction. Over a stream of warm
/// solves the unchanged-prefix entries accumulate, and reconstruction
/// collapses from one argmin scan per layer to a pointer walk wherever a
/// previously scanned chain is rejoined.
using LayeredParentCache = std::vector<std::int32_t>;

/// Shortest path through a DAG of `numLayers` layers with `numNodes` nodes
/// per layer — the structure of the paper's GOMCDS cost-graph (pseudo
/// source/destination are implicit). The path cost is
///   sum_w nodeCost(w, n_w) + sum_w transCost(n_{w-1}, n_w).
///
/// nodeCost may return kInfiniteCost to forbid a placement (used for
/// capacity-exhausted processors). Ties break toward the smaller node id,
/// resolved by a backward argmin reconstruction so that every solver
/// produces the identical path.
///
/// Cost contract shared by all entry points: finite costs are small enough
/// that any partial path sum stays below kInfiniteCost, and forbidden
/// placements are exactly kInfiniteCost. The flat kernels rely on this to
/// run their inner passes branch-free with a single final clamp.
class LayeredDagSolver {
 public:
  // nodeCosts is a row-major numLayers x numNodes table (nodeCosts[w * N + p]
  // = cost of node p in layer w); transCosts is a row-major numNodes x
  // numNodes table indexed by source (transCosts[q * N + p] = cost of the
  // q -> p transition — rows by source, since fault-aware distances can be
  // asymmetric). Every kernel produces the same dp table and path for the
  // same transitions, including tie-breaks.

  /// Generic flat solve against a precomputed transition table.
  [[nodiscard]] static LayeredPath solveFlat(int numLayers, int numNodes,
                                             std::span<const Cost> nodeCosts,
                                             std::span<const Cost> transCosts);

  /// Allocation-free variant of solveFlat: dp/relaxed buffers come from
  /// `scratch`, the path is written into `out` (grow-only reuse).
  static void solveFlatInto(int numLayers, int numNodes,
                            std::span<const Cost> nodeCosts,
                            std::span<const Cost> transCosts,
                            LayeredDagScratch& scratch, LayeredPath& out);

  /// Warm-start variant for streaming re-solves: `dp` is the caller-retained
  /// numLayers x numNodes dp table of a previous solve. Rows [0, fromLayer)
  /// must still be valid — i.e. the node-cost rows [0, fromLayer) and the
  /// transition table are byte-identical to that previous solve — and only
  /// layers [fromLayer, numLayers) are re-relaxed. fromLayer == 0 recomputes
  /// the whole table (exactly solveFlatInto against `dp`); fromLayer ==
  /// numLayers re-runs only the reconstruction. The resulting dp table and
  /// path are bit-identical to a cold solve of the full node-cost table,
  /// including tie-breaks.
  ///
  /// `parents`, when non-null, is a caller-retained LayeredParentCache for
  /// this dp table: entries for layers [fromLayer + 1, numLayers) are
  /// invalidated on entry (a wrong-sized cache is reset wholesale, which
  /// is always safe — every entry is recomputed on demand), entries for
  /// layers up to fromLayer are trusted under the same contract as the
  /// retained dp rows they were scanned against (rows below fromLayer),
  /// and reconstruction consults the cache before scanning and
  /// stores every predecessor it does scan. Cached or scanned, the chosen
  /// predecessors — and therefore the path — are bit-identical.
  static void solveFlatResumeInto(int numLayers, int numNodes,
                                  std::span<const Cost> nodeCosts,
                                  std::span<const Cost> transCosts,
                                  int fromLayer, CostBuffer& dp,
                                  LayeredDagScratch& scratch, LayeredPath& out,
                                  LayeredParentCache* parents = nullptr);

  /// Chamfer flat solve for transition cost beta * manhattan(prev, node).
  /// Requires 0 <= beta <= maxChamferBeta(grid) (pim/grid.hpp); any other
  /// beta throws std::invalid_argument, as does the Into variant.
  [[nodiscard]] static LayeredPath solveManhattanFlat(
      const Grid& grid, int numLayers, std::span<const Cost> nodeCosts,
      Cost beta);

  /// Allocation-free variant of solveManhattanFlat.
  static void solveManhattanFlatInto(const Grid& grid, int numLayers,
                                     std::span<const Cost> nodeCosts,
                                     Cost beta, LayeredDagScratch& scratch,
                                     LayeredPath& out);

  /// Separable solve for a healthy mesh whose node costs split into a row
  /// term plus a column term: node (w, r * C + c) costs
  /// rowCosts[w * R + r] + colCosts[w * C + c], and a transition costs
  /// beta * manhattan, which splits the same way. The layered DAG is then
  /// the product of a row chain and a column chain (docs/algorithms.md,
  /// "Separable GOMCDS"), so two 1-D L1 min-plus chains replace the R x C
  /// layers: O(numLayers * (R + C)) instead of O(numLayers * R * C).
  /// Reconstruction takes the smallest argmin row, then the smallest argmin
  /// column, at the last layer and at every predecessor step — the 2-D
  /// solvers' smallest row-major id — so the path and total are
  /// bit-identical to solveManhattanFlatInto over the summed R x C table.
  /// out.nodes are row-major processor ids. The two chains' dp tables live
  /// in scratch.dp. Same beta precondition as solveManhattanFlat.
  static void solveSeparableInto(const Grid& grid, int numLayers,
                                 std::span<const Cost> rowCosts,
                                 std::span<const Cost> colCosts, Cost beta,
                                 LayeredDagScratch& scratch, LayeredPath& out);

  /// Mesh flat solve for a faulted grid: the q -> p transition costs beta *
  /// hopDistance(q, p) over the alive directed mesh `links` describes —
  /// the table the dense kernel gets as model.moveCost(q, p), with
  /// unreachable or dead endpoints infinite. That step costs the same beta
  /// per alive hop, so each layer's min-plus is a multi-source shortest
  /// path, computed by masked Gauss-Seidel grid sweeps repeated until the
  /// grid is settled: O(numNodes) per sweep instead of the dense
  /// O(numNodes^2) relax, and no numNodes^2 table. Reconstruction keeps
  /// the dense kernel's ascending-q scan, reading hop distances from the
  /// links' DistanceMap. dp rows, totals, paths and tie-breaks are
  /// bit-identical to solveFlatInto over that table.
  static void solveMeshFlatInto(const MeshLinks& links, int numLayers,
                                std::span<const Cost> nodeCosts, Cost beta,
                                LayeredDagScratch& scratch, LayeredPath& out);

  /// Warm-start mesh variant; same contract as solveFlatResumeInto
  /// (including the optional predecessor cache), with retained dp rows
  /// valid as long as the fault state, beta and the node-cost prefix are
  /// unchanged.
  static void solveMeshFlatResumeInto(const MeshLinks& links, int numLayers,
                                      std::span<const Cost> nodeCosts,
                                      Cost beta, int fromLayer, CostBuffer& dp,
                                      LayeredDagScratch& scratch,
                                      LayeredPath& out,
                                      LayeredParentCache* parents = nullptr);
};

/// The L1 (chamfer) min-plus convolution used by solveManhattanFlat, exposed
/// for testing: out[p] = min over q of in[q] + beta * manhattan(p, q).
[[nodiscard]] std::vector<Cost> manhattanMinPlus(const Grid& grid,
                                                 const std::vector<Cost>& in,
                                                 Cost beta);

/// In-place variant: writes the transform of `in` into `out` (both of
/// grid.size()). `out` may alias `in` exactly or not at all — partial
/// overlap is undefined. The two sweeps are branch-free (raw adds with one
/// final clamp to kInfiniteCost) and run through the dispatched SIMD
/// kernels (graph/simd/simd_kernels.hpp) — bit-identical across tiers;
/// inputs must follow the solver cost contract above. A beta outside
/// [0, maxChamferBeta(grid)] throws std::invalid_argument: within it the
/// drift above kInfiniteCost before the clamp cannot overflow.
void manhattanMinPlusInto(const Grid& grid, std::span<const Cost> in,
                          Cost beta, std::span<Cost> out);

/// The faulted-mesh min-plus step of solveMeshFlatInto, exposed for testing
/// and benchmarking: out[p] = min over q of in[q] + beta * hops(q, p), hops
/// taken over the alive directed mesh of `links` (kInfiniteCost when no
/// path exists or p is dead). `out` may alias `in` exactly or not at all;
/// inputs must follow the solver cost contract. Returns the number of
/// Gauss-Seidel sweeps run; the grid is settled (one more sweep would
/// change nothing) after the last, which a read-only check confirms.
int meshMinPlusInto(const MeshLinks& links, std::span<const Cost> in,
                    Cost beta, std::span<Cost> out);

}  // namespace pimsched
