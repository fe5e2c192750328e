#pragma once

// Internal machinery shared by the cold GOMCDS engine (core/gomcds.cpp)
// and the incremental warm-start solver (core/incremental.cpp). Not part of
// the public scheduling API — include only from core/ implementation files
// and tests that need the injectable-signature seams.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/gomcds.hpp"
#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "graph/layered_dag.hpp"
#include "graph/mesh_links.hpp"
#include "trace/windowed_refs.hpp"
#include "util/aligned.hpp"

namespace pimsched::detail {

/// Per-thread arena for the flat solve path: every buffer is grow-only, so
/// after the first datum on a thread the steady-state loop performs zero
/// heap allocations per datum.
struct GomcdsScratch {
  LayeredDagScratch dag;  ///< dp + relaxed layers of the flat solver
  CostBuffer serve;       ///< flat W x P node-cost table fed to the solver
  CostBuffer rows;        ///< W x R row node costs of a separable solve
  CostBuffer cols;        ///< W x C column node costs of a separable solve
};

/// True when the forbidden (window, processor) set cannot change while data
/// are placed: capacity is unlimited and no *alive* processor carries a
/// fault capacity limit (dead processors are already forbidden through
/// their infinite serving cost). With a static forbidden set, data of the
/// same equivalence class share one solved path.
[[nodiscard]] bool staticForbiddenSet(const CostModel& model,
                                      const SchedulerOptions& options);

/// Equivalence classes of data whose windowed reference strings are
/// byte-identical — they pose the same per-datum DAG subproblem, so under
/// a static forbidden set one solve per class serves every member.
struct DedupClasses {
  std::vector<int> classOf;  ///< datum -> class index
  std::vector<DataId> rep;   ///< class -> representative (lowest-id) datum
  std::vector<int> size;     ///< class -> member count
};

/// Generic equivalence-class construction over n items. `sig(d)` is a
/// 64-bit prescreen signature bucketing candidates; `same(rep, d)` is the
/// authoritative full comparison run against each bucketed class
/// representative, so signature collisions can never merge distinct
/// classes. Exposed as a template seam: crafting genuine 64-bit FNV-1a
/// collisions is computationally infeasible, so the collision regression
/// test injects a forced-colliding `sig` against the real comparator and
/// exercises the exact production code path.
template <class SigFn, class SameFn>
DedupClasses buildEquivalenceClasses(DataId n, const SigFn& sig,
                                     const SameFn& same) {
  DedupClasses out;
  out.classOf.resize(static_cast<std::size_t>(n));
  std::unordered_map<std::uint64_t, std::vector<int>> bySig;
  for (DataId d = 0; d < n; ++d) {
    std::vector<int>& bucket = bySig[sig(d)];
    int cls = -1;
    for (const int c : bucket) {
      if (same(out.rep[static_cast<std::size_t>(c)], d)) {
        cls = c;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(out.rep.size());
      out.rep.push_back(d);
      out.size.push_back(0);
      bucket.push_back(cls);
    }
    out.classOf[static_cast<std::size_t>(d)] = cls;
    ++out.size[static_cast<std::size_t>(cls)];
  }
  return out;
}

/// The production class computation: FNV-1a whole-datum signatures
/// prescreen, WindowedRefs::sameRefs confirms. Emits the gomcds.dedup.*
/// counters.
[[nodiscard]] DedupClasses computeDedupClasses(const WindowedRefs& refs);

/// The per-datum layered-DAG kernel of one scheduling call, chosen from
/// the model and the engine: the chamfer distance transform on a healthy
/// mesh, the masked mesh sweeps on a faulted one (both GomcdsEngine::
/// kChamfer), and for GomcdsEngine::kNaive the dense relax over a P x P
/// beta x distance table — the literal cost-graph oracle, whose table is
/// built once per kernel (counter gomcds.trans_table.builds). All three
/// produce bit-identical dp tables and paths. On a healthy mesh under
/// kChamfer a datum's unconstrained DAG is also separable (solveDatum).
/// Read-only once built, so one instance serves every worker of a parallel
/// call; the model (and its DistanceMap) must outlive it.
class LayerKernel {
 public:
  LayerKernel(const CostModel& model, GomcdsEngine engine);

  /// Cold solve of a flat numLayers x P node-cost table.
  void solve(int numLayers, std::span<const Cost> nodeCosts,
             LayeredDagScratch& scratch, LayeredPath& out) const;

  /// Warm-start solve under the contract of
  /// LayeredDagSolver::solveFlatResumeInto. Requires !separable(): a
  /// healthy mesh re-solves a datum whole (solveDatum), so only the dense
  /// and faulted-mesh kernels resume.
  void resume(int numLayers, std::span<const Cost> nodeCosts, int fromLayer,
              CostBuffer& dp, LayeredDagScratch& scratch, LayeredPath& out,
              LayeredParentCache* parents) const;

  /// True for the healthy-mesh chamfer kernel: the model has no
  /// DistanceMap and the engine is kChamfer.
  [[nodiscard]] bool separable() const { return !dense_ && !mesh_; }

  /// Datum d's path with no slot forbidden, by the separable solve
  /// (LayeredDagSolver::solveSeparableInto over the row and column
  /// marginals of separableAxisCostsInto): O(W * (refs + R + C)) with no
  /// W x P serve table, and bit-identical to solve() over d's serve table.
  /// Requires separable().
  void solveDatum(const WindowedRefs& refs, DataId d, GomcdsScratch& scratch,
                  LayeredPath& out) const;

  /// Writes into scratch.serve the numLayers x P serve table of the datum
  /// whose marginals the last solveDatum left in scratch.rows and
  /// scratch.cols: bit-identical to datumCenterCostsInto for that datum
  /// (separableSumInto), without recomputing the marginals. Requires
  /// separable().
  void serveFromMarginals(int numLayers, GomcdsScratch& scratch) const;

 private:
  const Grid* grid_;
  Cost hopCost_;
  Cost beta_;
  bool dense_;
  std::optional<MeshLinks> mesh_;  ///< faulted mesh, kChamfer engine
  std::vector<Cost> trans_;        ///< kNaive: trans[q * P + p]
};

}  // namespace pimsched::detail
