#include "serve/service.hpp"

#include <new>
#include <sstream>
#include <stdexcept>

#include "core/schedule_io.hpp"
#include "core/verify.hpp"
#include "cost/array_model.hpp"
#include "pim/grid.hpp"

namespace pimsched::serve {

std::string toString(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "unknown";
}

bool isTerminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

Digest jobDigest(const JobRequest& request) {
  const Digest trace = traceDigest(request.trace);
  const Digest config = configDigest(request.config);
  DigestBuilder b;
  b.str("pimjob");
  b.u64(trace.hi);
  b.u64(trace.lo);
  b.u64(config.hi);
  b.u64(config.lo);
  b.i64(request.gridRows);
  b.i64(request.gridCols);
  b.i64(static_cast<std::int64_t>(request.method));
  // Fault specs change the answer, so they must split the result cache;
  // length-prefixed so spec lists cannot collide by concatenation.
  b.u64(static_cast<std::uint64_t>(request.faults.size()));
  for (const std::string& spec : request.faults) b.str(spec);
  // The tenant is an isolation boundary, not an input to the solve:
  // length-prefixed like the specs above so it cannot collide with them.
  b.str(request.tenant);
  return b.digest();
}

JobError classifyJobError(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const UnreachableError& e) {
    return {e.what(), "unreachable", false};
  } catch (const CapacityInfeasibleError& e) {
    return {e.what(), "infeasible", false};
  } catch (const std::invalid_argument& e) {
    return {e.what(), "invalid", false};
  } catch (const std::bad_alloc& e) {
    return {e.what(), "internal", false};
  } catch (const std::exception& e) {
    return {e.what(), "internal", true};
  } catch (...) {
    return {"unknown error", "internal", true};
  }
}

std::shared_ptr<JobResult> executeJobRequest(
    const JobRequest& req, const std::vector<std::string>& arrayFaults) {
  FaultMap faults(Grid(req.gridRows, req.gridCols));
  applyFaultSpecs(faults, arrayFaults);
  applyFaultSpecs(faults, req.faults);
  const Experiment exp(req.trace, faults.grid(), faults, req.config);
  DataSchedule schedule = exp.schedule(req.method);
  requireFaultFeasible(schedule, exp.refs(), exp.costModel());
  auto result = std::make_shared<JobResult>();
  result->eval = evaluateSchedule(schedule, exp.refs(), exp.costModel(),
                                  req.config.threads);
  std::ostringstream os;
  saveSchedule(schedule, os);
  result->scheduleText = std::move(os).str();
  return result;
}

}  // namespace pimsched::serve
