#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/verify.hpp"
#include "fault/fault_trace.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"

namespace pimsched {

std::string toString(Method m) {
  switch (m) {
    case Method::kRowWise: return "S.F.(row-wise)";
    case Method::kColWise: return "col-wise";
    case Method::kBlock2D: return "block-2d";
    case Method::kCyclic2D: return "cyclic-2d";
    case Method::kRandom: return "random";
    case Method::kScds: return "SCDS";
    case Method::kLomcds: return "LOMCDS";
    case Method::kGomcds: return "GOMCDS";
    case Method::kGroupedLomcds: return "LOMCDS+group";
    case Method::kGroupedGomcds: return "GOMCDS+group";
    case Method::kGroupedOptimal: return "LOMCDS+group*";
  }
  return "unknown";
}

std::optional<Method> methodFromString(const std::string& name) {
  if (name == "rowwise") return Method::kRowWise;
  if (name == "colwise") return Method::kColWise;
  if (name == "block") return Method::kBlock2D;
  if (name == "cyclic") return Method::kCyclic2D;
  if (name == "random") return Method::kRandom;
  if (name == "scds") return Method::kScds;
  if (name == "lomcds") return Method::kLomcds;
  if (name == "gomcds") return Method::kGomcds;
  if (name == "grouped") return Method::kGroupedLomcds;
  if (name == "groupedgomcds") return Method::kGroupedGomcds;
  if (name == "groupedoptimal") return Method::kGroupedOptimal;
  return std::nullopt;
}

Digest configDigest(const PipelineConfig& config) {
  DigestBuilder b;
  b.str("pimconfig");
  if (config.explicitWindows.has_value()) {
    const WindowPartition& p = *config.explicitWindows;
    b.u64(1);
    b.i64(p.numSteps());
    b.u64(static_cast<std::uint64_t>(p.numWindows()));
    for (WindowId w = 0; w < p.numWindows(); ++w) b.i64(p.window(w).begin);
  } else {
    b.u64(0);
    b.i64(config.numWindows);
  }
  b.i64(config.capacity);
  b.i64(config.costParams.hopCost);
  b.i64(config.costParams.moveVolume);
  b.i64(static_cast<std::int64_t>(config.order));
  return b.digest();
}

namespace {

void resolveCapacity(std::int64_t& capacity, std::int64_t numData,
                     std::int64_t procs) {
  if (capacity == PipelineConfig::kPaperCapacity) {
    // The paper's "twice the minimum" rule; over a faulted mesh the
    // minimum counts only alive processors.
    capacity = 2 * ((numData + procs - 1) / procs);
  } else if (capacity == PipelineConfig::kUnlimited) {
    capacity = -1;
  } else if (capacity < 0) {
    throw std::invalid_argument("Experiment: invalid capacity sentinel");
  }
}

/// Throws std::invalid_argument unless traceCostsFit.
void checkCostRange(const ReferenceTrace& trace, const Grid& grid,
                    const CostParams& params, const char* who) {
  if (!traceCostsFit(trace, grid.size(), params)) {
    throw std::invalid_argument(
        std::string(who) + ": total access weight " +
        std::to_string(trace.totalWeight()) + " is too large for a " +
        std::to_string(grid.rows()) + "x" + std::to_string(grid.cols()) +
        " grid (weight x hopCost x (procs - 1) must be below " +
        std::to_string(kInfiniteCost) + ")");
  }
}

const FaultMap& checkFaultGrid(const FaultMap& faults, const Grid& grid) {
  if (&faults.grid() != &grid) {
    throw std::invalid_argument(
        "Experiment: FaultMap built over a different grid");
  }
  return faults;
}

}  // namespace

bool traceCostsFit(const ReferenceTrace& trace, int procs,
                   const CostParams& params) {
  const Cost hop = std::max<Cost>(params.hopCost, 1);
  const Cost hops = std::max<Cost>(procs - 1, 1);
  Cost bound = 0;
  return !__builtin_mul_overflow(trace.totalWeight(), hop, &bound) &&
         !__builtin_mul_overflow(bound, hops, &bound) && bound < kInfiniteCost;
}

Experiment::Experiment(const ReferenceTrace& trace, const Grid& grid,
                       PipelineConfig config)
    : space_(&trace.dataSpace()),
      grid_(&grid),
      config_(config),
      windows_(config.explicitWindows.has_value()
                   ? *config.explicitWindows
                   : WindowPartition::evenCount(trace.numSteps(),
                                                config.numWindows)),
      refs_(trace, windows_, grid),
      model_(grid, config.costParams),
      capacity_(config.capacity) {
  if (trace.numSteps() == 0) {
    throw std::invalid_argument(
        "Experiment: trace has no steps (nothing to schedule)");
  }
  checkCostRange(trace, grid, config.costParams, "Experiment");
  resolveCapacity(capacity_, trace.numData(), grid.size());
}

Experiment::Experiment(const ReferenceTrace& trace, const Grid& grid,
                       const FaultMap& faults, PipelineConfig config)
    : space_(&trace.dataSpace()),
      grid_(&grid),
      config_(config),
      windows_(config.explicitWindows.has_value()
                   ? *config.explicitWindows
                   : WindowPartition::evenCount(trace.numSteps(),
                                                config.numWindows)),
      faults_(checkFaultGrid(faults, grid)),
      distances_(std::in_place, grid, *faults_),
      refs_(WindowedRefs(trace, windows_, grid)
                .withProcsMasked(faults_->deadProcMask())),
      model_(grid, *distances_, config.costParams),
      capacity_(config.capacity) {
  if (trace.numSteps() == 0) {
    throw std::invalid_argument(
        "Experiment: trace has no steps (nothing to schedule)");
  }
  checkCostRange(trace, grid, config.costParams, "Experiment");
  if (faults_->aliveProcCount() == 0) {
    throw UnreachableError("Experiment: every processor is dead (" +
                           faults_->summary() + ")");
  }
  resolveCapacity(capacity_, trace.numData(), faults_->aliveProcCount());
}

DataSchedule scheduleMethod(Method m, const WindowedRefs& refs,
                            const CostModel& model, const DataSpace& space,
                            const SchedulerOptions& options,
                            unsigned threads) {
  const auto baseline = [&](BaselineKind kind) {
    return baselineSchedule(kind, space, model.grid(), refs.numWindows());
  };
  switch (m) {
    case Method::kRowWise: return baseline(BaselineKind::kRowWise);
    case Method::kColWise: return baseline(BaselineKind::kColWise);
    case Method::kBlock2D: return baseline(BaselineKind::kBlock2D);
    case Method::kCyclic2D: return baseline(BaselineKind::kCyclic2D);
    case Method::kRandom: return baseline(BaselineKind::kRandom);
    case Method::kScds:
      return scheduleScds(refs, model, options);
    case Method::kLomcds:
      return scheduleLomcds(refs, model, options);
    case Method::kGomcds:
      return scheduleGomcds(refs, model, options, threads);
    case Method::kGroupedLomcds:
      return scheduleGroupedLomcds(refs, model, options,
                                   GroupingMethod::kGreedy);
    case Method::kGroupedGomcds:
      return scheduleGroupedGomcds(refs, model, options);
    case Method::kGroupedOptimal:
      return scheduleGroupedLomcds(refs, model, options,
                                   GroupingMethod::kOptimalDp);
  }
  throw std::invalid_argument("scheduleMethod: unknown method");
}

DataSchedule Experiment::schedule(Method m) const {
  return scheduleMethod(m, refs_, model_, *space_,
                        SchedulerOptions{capacity_, config_.order},
                        config_.threads);
}

EvalResult Experiment::evaluate(Method m) const {
  return evaluateSchedule(schedule(m), refs_, model_, config_.threads);
}

StreamSession::StreamSession(int gridRows, int gridCols,
                             PipelineConfig config, Method method,
                             const std::vector<std::string>& faultSpecs)
    : grid_(gridRows, gridCols),
      config_(config),
      method_(method),
      faults_(grid_),
      faultAware_(!faultSpecs.empty()),
      model_(grid_, config.costParams) {
  if (!faultAware_) return;
  // A spec that changes nothing (a repeat, a processor inside an already
  // dead row) is fine, exactly as on the one-shot path; a malformed spec
  // throws from applyFaultSpec.
  for (const std::string& spec : faultSpecs) applyFaultSpec(faults_, spec);
  distances_.emplace(grid_, faults_);
  model_ = CostModel(grid_, *distances_, config_.costParams);
}

StreamStepResult StreamSession::step(const ReferenceTrace& trace) {
  PIMSCHED_SCOPED_TIMER("stream.step");
  if (trace.numSteps() == 0) {
    throw std::invalid_argument(
        "StreamSession: trace has no steps (nothing to schedule)");
  }
  checkCostRange(trace, grid_, config_.costParams, "StreamSession");
  if (faultAware_ && faults_.aliveProcCount() == 0) {
    throw UnreachableError("StreamSession: every processor is dead (" +
                           faults_.summary() + ")");
  }
  const WindowPartition windows =
      config_.explicitWindows.has_value()
          ? *config_.explicitWindows
          : WindowPartition::evenCount(trace.numSteps(), config_.numWindows);
  WindowedRefs refs(trace, windows, grid_);
  if (faultAware_) refs = refs.withProcsMasked(faults_.deadProcMask());
  std::int64_t capacity = config_.capacity;
  resolveCapacity(capacity, trace.numData(),
                  faultAware_ ? faults_.aliveProcCount() : grid_.size());
  const SchedulerOptions opts{capacity, config_.order};

  // GOMCDS is the warm path: identical to scheduleGomcds on every step,
  // reusing every dp row before the first changed window of each class.
  const bool warmPath = method_ == Method::kGomcds;
  DataSchedule schedule =
      warmPath ? solver_.solve(refs, model_, opts)
               : scheduleMethod(method_, refs, model_, trace.dataSpace(), opts,
                                config_.threads);
  if (faultAware_) requireFaultFeasible(schedule, refs, model_);
  EvalResult eval = evaluateSchedule(schedule, refs, model_, config_.threads);
  StreamStepResult out{std::move(schedule), std::move(eval)};
  if (warmPath) {
    const IncrementalSolver::Stats& stats = solver_.lastStats();
    out.incremental = !stats.cold;
    out.reusedLayers = stats.reusedLayers;
    out.relaxedLayers = stats.relaxedLayers;
  }
  PIMSCHED_COUNTER_ADD("stream.steps", 1);
  if (out.incremental) PIMSCHED_COUNTER_ADD("stream.warm_steps", 1);
  return out;
}

double improvementPct(Cost base, Cost cost) {
  if (base == 0) return 0.0;
  return 100.0 * static_cast<double>(base - cost) /
         static_cast<double>(base);
}

}  // namespace pimsched
