#pragma once

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Global-Optimal Multiple-Center Data Scheduling (paper Algorithm 2): for
/// each datum, build the layered cost-graph — one node per (execution
/// window, processor), edge weight = movement cost between the processors
/// plus the serving cost of the next window — and take the shortest
/// source-to-destination path as the center sequence. Without capacity
/// pressure this minimises each datum's total (serving + movement) cost
/// exactly.
///
/// Capacity is handled in the spirit of the paper's processor list: data
/// are scheduled in visit order (options.order) and a (window, processor)
/// slot that is full becomes a forbidden node for later data.
///
/// The per-datum kernel follows from the model alone. On a healthy mesh (a
/// model without a DistanceMap) the serving and move costs are weighted
/// Manhattan distances, so a datum's DAG is the product of a row chain and
/// a column chain: its unconstrained path comes from two 1-D solves,
/// O(W * (R + C)), with no W x P serve table (docs/algorithms.md,
/// "Separable GOMCDS").
///
/// Under a static forbidden set (unlimited capacity, no alive processor
/// with a fault capacity limit) paths cannot conflict: data with identical
/// per-window reference strings — common in matmul/LU traces — form one
/// class, each class is solved once (fanned out over `threads`), then one
/// pass commits in visit order. Under capacity pressure the data are
/// solved and committed one at a time in visit order, each against the
/// live forbidden set, on the calling thread: every datum costs exactly
/// one solve. On a healthy mesh that solve is first the separable one,
/// kept when none of its slots is full (an exact screen: it is then the
/// masked optimum too); otherwise, and on faulted meshes, the datum's serve
/// table is masked and solved in 2-D: by the L1 distance transform on a
/// healthy mesh, by masked grid sweeps over the alive links on a faulted
/// one, O(numProcs) per sweep, never by a numProcs^2 transition table.
///
/// The schedule is the same for every thread count. threads = 0 uses
/// hardware concurrency; helper workers come from the shared ThreadPool
/// (util/thread_pool.hpp).
[[nodiscard]] DataSchedule scheduleGomcds(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options = {}, unsigned threads = 1);

}  // namespace pimsched
