#pragma once

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Which engine solves the per-datum shortest-path problem. Both produce
/// identical schedules; kChamfer exploits the grid structure of the
/// movement cost to relax each layer without a numProcs^2 transition
/// table — the L1 distance transform on a healthy mesh, O(numProcs), and
/// masked grid sweeps over the alive links on a faulted one, O(numProcs)
/// per sweep. kNaive exists for the A2 ablation and as the literal reading
/// of the paper's cost-graph: a dense O(numProcs^2) relax per layer.
enum class GomcdsEngine { kChamfer, kNaive };

/// Global-Optimal Multiple-Center Data Scheduling (paper Algorithm 2): for
/// each datum, build the layered cost-graph — one node per (execution
/// window, processor), edge weight = movement cost between the processors
/// plus the serving cost of the next window — and take the shortest
/// source-to-destination path as the center sequence. Without capacity
/// pressure this minimises each datum's total (serving + movement) cost
/// exactly.
///
/// Capacity is handled in the spirit of the paper's processor list: data
/// are scheduled sequentially and a (window, processor) slot that is full
/// becomes a forbidden node for later data.
///
/// Serving-cost tables are memoized per call (cost/cost_cache.hpp): data
/// with identical per-window reference strings — common in matmul/LU
/// traces — share one table instead of recomputing it.
[[nodiscard]] DataSchedule scheduleGomcds(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options = {},
    GomcdsEngine engine = GomcdsEngine::kChamfer);

/// Multi-threaded GOMCDS, bit-identical to scheduleGomcds(refs, model,
/// options) for any options, capacity included. Two-phase plan/commit:
/// workers solve the per-datum layered DAGs in parallel against a
/// read-only snapshot of the occupancy maps, then a sequential commit
/// pass walks the data in visit order (the deterministic tie-break) and
/// places every datum whose planned path still fits. The first datum
/// whose plan hits a slot filled after its snapshot stops the pass; only
/// plans invalidated by the new placements are re-solved in the next
/// round, so conflict-free workloads finish in a single parallel round.
///
/// Equality to the sequential engine holds because a planned path that
/// stays feasible under the (larger) commit-time forbidden set is still
/// the cost- and tie-break-minimal path the sequential scheduler would
/// pick. threads = 0 uses hardware concurrency; helper workers come from
/// the shared ThreadPool (util/thread_pool.hpp).
[[nodiscard]] DataSchedule scheduleGomcdsParallel(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options, unsigned threads = 0);

/// Back-compat convenience: unlimited capacity, id order.
[[nodiscard]] DataSchedule scheduleGomcdsParallel(const WindowedRefs& refs,
                                                  const CostModel& model,
                                                  unsigned threads = 0);

}  // namespace pimsched
