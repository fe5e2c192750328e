#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/grouping.hpp"
#include "core/incremental.hpp"
#include "core/lomcds.hpp"
#include "core/scds.hpp"
#include "cost/array_model.hpp"
#include "trace/trace_io.hpp"
#include "trace/window.hpp"

namespace pimsched {

/// Every scheduling method the experiments compare.
enum class Method {
  kRowWise,         ///< the paper's "straight-forward" S.F. column
  kColWise,
  kBlock2D,
  kCyclic2D,
  kRandom,
  kScds,
  kLomcds,
  kGomcds,
  kGroupedLomcds,   ///< Algorithm 3 (greedy) on LOMCDS centers — Table 2
  kGroupedGomcds,   ///< Algorithm 3 groups + GOMCDS DP over groups — Table 2's GOMCDS column
  kGroupedOptimal,  ///< optimal-DP grouping ablation
};

[[nodiscard]] std::string toString(Method m);

/// Inverse of the CLI/protocol method spelling: rowwise|colwise|block|
/// cyclic|random|scds|lomcds|gomcds|grouped|groupedgomcds|groupedoptimal.
/// nullopt on anything else. (Shared by pimsched_cli and the serving
/// protocol so both accept the same vocabulary.)
[[nodiscard]] std::optional<Method> methodFromString(const std::string& name);

/// Knobs of one experiment run.
struct PipelineConfig {
  /// Number of execution windows the step sequence is split into
  /// (WindowPartition::evenCount); clamped to the step count. Ignored
  /// when explicitWindows is set.
  int numWindows = 8;

  /// Use these window boundaries verbatim (e.g. from adaptiveWindows)
  /// instead of an even split.
  std::optional<WindowPartition> explicitWindows;

  /// Per-processor capacity: kPaperCapacity applies the paper's "twice the
  /// minimum" rule, kUnlimited disables the constraint, any value >= 0 is
  /// used verbatim.
  static constexpr std::int64_t kPaperCapacity = -2;
  static constexpr std::int64_t kUnlimited = -1;
  std::int64_t capacity = kPaperCapacity;

  CostParams costParams = {};

  /// Data are scheduled heaviest-first by default: the paper's Algorithm 1
  /// visits "each data i" in an unspecified order, and letting data with
  /// the most reference traffic claim their optimal centers first is the
  /// natural processor-list behaviour under memory contention (ablated in
  /// section A3 of bench/paper_experiments).
  DataOrder order = DataOrder::kByWeightDesc;

  /// Worker threads for the parallel paths (GOMCDS's per-class solves
  /// under a static forbidden set, and schedule evaluation): 1 =
  /// sequential (default), 0 = hardware concurrency, N = at most N
  /// concurrent workers. Capacity-bound GOMCDS is one loop in visit order
  /// at every value. Results are identical for every value.
  unsigned threads = 1;
};

/// Runs one scheduling method over already-windowed references: the
/// baselines place `space` on `model.grid()`, every other method solves
/// `refs` under `model` with `options` (capacity and data order).
/// `threads` parallelizes GOMCDS's per-class solves under a static
/// forbidden set only; results are identical for every value.
/// Experiment::schedule and StreamSession::step both dispatch here.
[[nodiscard]] DataSchedule scheduleMethod(Method m, const WindowedRefs& refs,
                                          const CostModel& model,
                                          const DataSpace& space,
                                          const SchedulerOptions& options,
                                          unsigned threads = 1);

/// True when every serving cost of `trace` on a `procs`-processor grid
/// stays below kInfiniteCost: totalWeight * max(hopCost, 1) *
/// max(procs - 1, 1) < kInfiniteCost. Every serve or move distance,
/// Manhattan or fault detour, is at most procs - 1 hops, so the bound
/// covers every serving-cost sum. Experiment and StreamSession::step
/// reject a trace that fails it with std::invalid_argument.
[[nodiscard]] bool traceCostsFit(const ReferenceTrace& trace, int procs,
                                 const CostParams& params);

/// Binds a trace to a grid + config and runs any Method on it. Windowing,
/// reference aggregation and capacity resolution happen once in the
/// constructor; schedules and costs are computed per call.
///
/// The experiment runs on an ArrayModel of the grid and fault state, so it
/// is fault-aware exactly when the faults have any fault: references issued
/// by dead processors are dropped, costs use fault-aware hop distances, the
/// paper-capacity rule counts only alive processors and the schedulers
/// refuse dead centers. Every input (steps, capacity, cost params,
/// traceCostsFit, alive processors, windows, processor ids) is checked
/// before the model, and so any distance table, is built; an all-dead
/// array throws UnreachableError, any other bad input
/// std::invalid_argument.
class Experiment {
 public:
  Experiment(const ReferenceTrace& trace, const Grid& grid,
             PipelineConfig config = {});

  /// `faults` must be built over a grid of grid's shape. The experiment
  /// copies both; only `trace` must outlive it.
  Experiment(const ReferenceTrace& trace, const Grid& grid,
             const FaultMap& faults, PipelineConfig config = {});

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  [[nodiscard]] const Grid& grid() const { return array_->grid(); }
  [[nodiscard]] const WindowedRefs& refs() const { return *refs_; }
  /// The refs, shared: IncrementalSolver::solve keeps them without a copy.
  [[nodiscard]] std::shared_ptr<const WindowedRefs> sharedRefs() const {
    return refs_;
  }
  [[nodiscard]] const CostModel& costModel() const { return model_; }
  [[nodiscard]] const DataSpace& dataSpace() const { return *space_; }
  /// Resolved per-processor capacity (>= 0, or -1 for unlimited).
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }

  /// Builds the schedule a method produces (scheduleMethod over this
  /// experiment's refs, model and resolved capacity).
  [[nodiscard]] DataSchedule schedule(Method m) const;

  /// Schedule + evaluation in one step.
  [[nodiscard]] EvalResult evaluate(Method m) const;

 private:
  friend class StreamSession;
  /// Runs on `array` when given (a StreamSession's model of `faults`),
  /// else builds the model once every input check has passed.
  Experiment(const ReferenceTrace& trace, const Grid& grid,
             const FaultMap& faults, PipelineConfig config,
             std::shared_ptr<const ArrayModel> array);

  const DataSpace* space_;
  PipelineConfig config_;
  std::shared_ptr<const WindowedRefs> refs_;
  std::shared_ptr<const ArrayModel> array_;
  CostModel model_;  ///< points into *array_
  std::int64_t capacity_;
};

/// Result of one StreamSession step: the schedule of the submitted trace
/// revision, its evaluation, and how much solver state the warm path
/// reused.
struct StreamStepResult {
  DataSchedule schedule;
  EvalResult eval;
  bool incremental = false;        ///< warm-start path reused retained state
  std::int64_t reusedLayers = 0;   ///< per-class layers reused verbatim
  std::int64_t relaxedLayers = 0;  ///< per-class layers re-relaxed (IncrementalSolver::Stats)
};

/// A long-lived scheduling session over an evolving trace — the streaming
/// window API of the pipeline. Where an Experiment binds one immutable
/// trace, a StreamSession fixes the grid and fault state when it opens and
/// keeps an IncrementalSolver across successive trace revisions: each
/// step() is an Experiment over the session's one ArrayModel (built by the
/// first step whose inputs pass the checks, shared by every later step),
/// and the solver re-solves only the classes whose reference strings
/// changed (see IncrementalSolver), so steady-state steps whose traces
/// evolve only at the tail cost a fraction of a cold solve. Results are bit-identical to a fresh
/// Experiment::schedule on every step.
///
/// The fault state never changes after construction: a caller whose
/// topology drifts opens a new session (the serving layer's session store
/// does so whenever a window arrives under different array faults).
///
/// Not thread-safe: one StreamSession per stream, externally serialized.
class StreamSession {
 public:
  /// `faultSpecs` fix the session's fault state (applyFaultSpecs: a spec
  /// that changes nothing is accepted, a malformed one throws
  /// std::invalid_argument).
  StreamSession(int gridRows, int gridCols, PipelineConfig config = {},
                Method method = Method::kGomcds,
                const std::vector<std::string>& faultSpecs = {});

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Schedules the next revision of the evolving trace. Method kGomcds
  /// runs through the retained IncrementalSolver; every other method
  /// solves cold through scheduleMethod (supported, never warm). A
  /// fault-aware session refuses a schedule that violates its fault
  /// state (a fault-oblivious method placing data on a dead processor)
  /// with UnreachableError, as the one-shot serving path does.
  [[nodiscard]] StreamStepResult step(const ReferenceTrace& trace);

  [[nodiscard]] const Grid& grid() const { return faults_.grid(); }
  [[nodiscard]] const FaultMap& faults() const { return faults_; }
  /// Bytes of warm solver state retained between steps.
  [[nodiscard]] std::size_t retainedBytes() const {
    return solver_.retainedBytes();
  }

 private:
  FaultMap faults_;
  PipelineConfig config_;
  Method method_;
  std::shared_ptr<const ArrayModel> array_;  ///< built by the first step
  IncrementalSolver solver_;
};

/// Percentage improvement of `cost` over `base` (the paper's "%"
/// columns): 100 * (base - cost) / base. Returns 0 when base is 0.
[[nodiscard]] double improvementPct(Cost base, Cost cost);

/// Canonical digest of every config field that can change a schedule or
/// its cost: windowing (explicit boundaries when set, else numWindows),
/// capacity sentinel/value, cost params and data order. `threads` is
/// deliberately excluded — results are bit-identical for every thread
/// count, so thread count must not split the serving result cache.
/// Byte stream (DigestBuilder rules): str("pimconfig"), u64(0|1) for
/// explicitWindows, then either i64(numSteps) + u64(numWindows) +
/// i64(each window start) or i64(numWindows); then i64(capacity),
/// i64(hopCost), i64(moveVolume), i64(order).
[[nodiscard]] Digest configDigest(const PipelineConfig& config);

}  // namespace pimsched
