#include "core/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/verify.hpp"
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

/// Checks run before Experiment builds its ArrayModel, so a refused request
/// never pays for a distance table (WindowedRefs checks the rest).
const ReferenceTrace& checkedTrace(const ReferenceTrace& trace,
                                   const FaultMap& faults,
                                   const PipelineConfig& config) {
  const Grid& grid = faults.grid();
  if (trace.numSteps() == 0) {
    throw std::invalid_argument(
        "Experiment: trace has no steps (nothing to schedule)");
  }
  if (config.capacity < PipelineConfig::kPaperCapacity) {
    throw std::invalid_argument("Experiment: invalid capacity sentinel");
  }
  (void)CostModel(grid, config.costParams);  // throws past its bounds
  if (!traceCostsFit(trace, grid.size(), config.costParams)) {
    throw std::invalid_argument(
        "Experiment: total access weight " +
        std::to_string(trace.totalWeight()) + " is too large for a " +
        std::to_string(grid.rows()) + "x" + std::to_string(grid.cols()) +
        " grid (weight x hopCost x (procs - 1) must be below " +
        std::to_string(kInfiniteCost) + ")");
  }
  if (faults.aliveProcCount() == 0) {
    throw UnreachableError("Experiment: every processor is dead (" +
                           faults.summary() + ")");
  }
  return trace;
}

/// The trace's windowed refs, without the references dead processors issue.
std::shared_ptr<const WindowedRefs> windowedRefs(const ReferenceTrace& trace,
                                                 const Grid& grid,
                                                 const FaultMap& faults,
                                                 const PipelineConfig& config) {
  WindowedRefs refs(trace,
                    config.explicitWindows.has_value()
                        ? *config.explicitWindows
                        : WindowPartition::evenCount(trace.numSteps(),
                                                     config.numWindows),
                    grid);
  if (faults.deadProcCount() > 0) {
    refs = refs.withProcsMasked(faults.deadProcMask());
  }
  return std::make_shared<const WindowedRefs>(std::move(refs));
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
    : Experiment(trace, grid, FaultMap(grid), std::move(config), nullptr) {}

Experiment::Experiment(const ReferenceTrace& trace, const Grid& grid,
                       const FaultMap& faults, PipelineConfig config)
    : Experiment(trace, grid, faults, std::move(config), nullptr) {}

Experiment::Experiment(const ReferenceTrace& trace, const Grid& grid,
                       const FaultMap& faults, PipelineConfig config,
                       std::shared_ptr<const ArrayModel> array)
    : space_(&checkedTrace(trace, faults, config).dataSpace()),
      config_(std::move(config)),
      refs_(windowedRefs(trace, grid, faults, config_)),
      array_(array != nullptr ? std::move(array)
                              : std::make_shared<const ArrayModel>(grid, faults)),
      model_(array_->costModel(config_.costParams)),
      capacity_(config_.capacity) {
  if (capacity_ == PipelineConfig::kPaperCapacity) {
    // The paper's "twice the minimum" rule; over a faulted mesh the
    // minimum counts only alive processors.
    const std::int64_t procs = faults.aliveProcCount();
    capacity_ = 2 * ((trace.numData() + procs - 1) / procs);
  }
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
  return scheduleMethod(m, *refs_, model_, *space_,
                        SchedulerOptions{capacity_, config_.order},
                        config_.threads);
}

EvalResult Experiment::evaluate(Method m) const {
  return evaluateSchedule(schedule(m), *refs_, model_, config_.threads);
}

StreamSession::StreamSession(int gridRows, int gridCols,
                             PipelineConfig config, Method method,
                             const std::vector<std::string>& faultSpecs)
    : faults_(Grid(gridRows, gridCols)),
      config_(std::move(config)),
      method_(method) {
  applyFaultSpecs(faults_, faultSpecs);
}

StreamStepResult StreamSession::step(const ReferenceTrace& trace) {
  PIMSCHED_SCOPED_TIMER("stream.step");
  const Experiment exp(trace, grid(), faults_, config_, array_);
  array_ = exp.array_;
  const WindowedRefs& refs = exp.refs();
  const CostModel& model = exp.costModel();

  // GOMCDS is the warm path: identical to scheduleGomcds on every step,
  // re-solving only the classes whose reference strings changed.
  const bool warmPath = method_ == Method::kGomcds;
  DataSchedule schedule =
      warmPath ? solver_.solve(exp.sharedRefs(), model,
                               SchedulerOptions{exp.capacity(), config_.order})
               : exp.schedule(method_);
  requireFaultFeasible(schedule, refs, model);
  EvalResult eval = evaluateSchedule(schedule, refs, model, config_.threads);
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
