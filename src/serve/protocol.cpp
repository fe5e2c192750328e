#include "serve/protocol.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fault/fault_map.hpp"
#include "fault/fault_trace.hpp"
#include "pim/grid.hpp"
#include "serve/json.hpp"
#include "serve/stream.hpp"

namespace pimsched::serve {

namespace {

/// Protocol-level failure carrying the client-facing message.
class RequestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `kind` mirrors the job-level error taxonomy on protocol errors:
/// "invalid" means the request itself is wrong (retrying it verbatim
/// cannot succeed), "internal" means the server misbehaved.
std::string errorReply(const std::string& message,
                       const std::string& kind = "invalid") {
  Json reply;
  reply.set("ok", false).set("error", message).set("error_kind", kind);
  return reply.dump();
}

std::int64_t intField(const Json& request, const std::string& key,
                      std::int64_t fallback) {
  const Json* v = request.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->asInt64();
  } catch (const JsonError&) {
    throw RequestError("field '" + key + "' must be an integer");
  }
}

/// `value` as the field's C++ type T: a value T cannot hold is a protocol
/// error, never a silently narrowed one.
template <typename T>
T fitField(const std::string& key, std::int64_t value) {
  if (std::cmp_less(value, std::numeric_limits<T>::min())) {
    throw RequestError("field '" + key + "' must be >= " +
                       std::to_string(std::numeric_limits<T>::min()));
  }
  if (std::cmp_greater(value, std::numeric_limits<T>::max())) {
    throw RequestError("field '" + key + "' must be <= " +
                       std::to_string(std::numeric_limits<T>::max()));
  }
  return static_cast<T>(value);
}

bool boolField(const Json& request, const std::string& key, bool fallback) {
  const Json* v = request.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->asBool();
  } catch (const JsonError&) {
    throw RequestError("field '" + key + "' must be a boolean");
  }
}

std::string stringField(const Json& request, const std::string& key,
                        const std::string& fallback) {
  const Json* v = request.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->asString();
  } catch (const JsonError&) {
    throw RequestError("field '" + key + "' must be a string");
  }
}

JobId idField(const Json& request) {
  const Json* v = request.find("id");
  if (v == nullptr) throw RequestError("missing field 'id'");
  try {
    return v->asInt64();
  } catch (const JsonError&) {
    throw RequestError("field 'id' must be an integer");
  }
}

JobRequest parseSubmit(const Json& request, const ProtocolOptions& options) {
  JobRequest job;

  const Json* inlineTrace = request.find("trace");
  const Json* traceFile = request.find("trace_file");
  if ((inlineTrace != nullptr) == (traceFile != nullptr)) {
    throw RequestError(
        "submit needs exactly one of 'trace' (inline pimtrace text) or "
        "'trace_file' (server-side path)");
  }
  try {
    if (inlineTrace != nullptr) {
      job.trace = loadTrace(inlineTrace->asString());
    } else {
      if (!options.allowTraceFiles) {
        throw RequestError("trace_file submissions are disabled; inline "
                           "the trace in the 'trace' field");
      }
      job.trace = loadTraceFile(traceFile->asString());
    }
  } catch (const RequestError&) {
    throw;
  } catch (const std::exception& e) {
    throw RequestError(std::string("cannot load trace: ") + e.what());
  }

  const std::string grid = stringField(request, "grid", "4x4");
  const auto x = grid.find('x');
  std::size_t parsed = 0;
  try {
    if (x == std::string::npos) throw std::invalid_argument(grid);
    job.gridRows = std::stoi(grid.substr(0, x), &parsed);
    if (parsed != x) throw std::invalid_argument(grid);
    job.gridCols = std::stoi(grid.substr(x + 1), &parsed);
    if (parsed != grid.size() - x - 1) throw std::invalid_argument(grid);
  } catch (const std::exception&) {
    throw RequestError("field 'grid' must look like \"4x4\"");
  }
  if (job.gridRows < 1 || job.gridCols < 1) {
    throw RequestError("field 'grid' must name a grid of at least 1x1");
  }
  // Bound the grid before the Grid constructor ever sees it so a hostile
  // "1000000x1000000" submission is a structured protocol error, not an
  // attempted multi-terabyte allocation inside a worker.
  if (job.gridRows > kMaxGridSide || job.gridCols > kMaxGridSide ||
      static_cast<std::int64_t>(job.gridRows) * job.gridCols > kMaxGridProcs) {
    throw RequestError(
        "field 'grid' too large (sides limited to " +
        std::to_string(kMaxGridSide) + ", total processors to " +
        std::to_string(kMaxGridProcs) + ")");
  }

  if (const Json* faults = request.find("faults"); faults != nullptr) {
    if (!faults->isArray()) {
      throw RequestError("field 'faults' must be an array of spec strings");
    }
    // Validate every spec against the declared grid now, so a bad spec is
    // a submit-time error rather than a failed job.
    const Grid grid(job.gridRows, job.gridCols);
    FaultMap probe(grid);
    for (const Json& item : faults->asArray()) {
      if (!item.isString()) {
        throw RequestError("field 'faults' must be an array of spec strings");
      }
      try {
        applyFaultSpec(probe, item.asString());
      } catch (const std::exception& e) {
        throw RequestError("bad fault spec '" + item.asString() + "': " +
                           e.what());
      }
      job.faults.push_back(item.asString());
    }
  }

  const std::string methodName = stringField(request, "method", "gomcds");
  const std::optional<Method> method = methodFromString(methodName);
  if (!method.has_value()) {
    throw RequestError("unknown method '" + methodName + "'");
  }
  job.method = *method;

  const std::int64_t windows = intField(request, "windows", -1);
  if (windows == 0 || windows < -1) {
    throw RequestError("field 'windows' must be a positive window count");
  }
  if (windows > 0) {
    job.config.numWindows = fitField<int>("windows", windows);
  } else {
    job.config.explicitWindows =
        WindowPartition::perStep(job.trace.numSteps());
  }
  // WindowPartition::evenCount clamps the window count to the step count.
  const std::int64_t steps = std::max<std::int64_t>(job.trace.numSteps(), 1);
  const std::int64_t numWindows =
      windows > 0 ? std::min(windows, steps) : steps;
  if (job.trace.numData() > kMaxTraceCells / numWindows) {
    throw RequestError(
        "trace too large (" + std::to_string(job.trace.numData()) +
        " data x " + std::to_string(numWindows) + " windows exceeds " +
        std::to_string(kMaxTraceCells) + " cells)");
  }

  if (const Json* cap = request.find("capacity"); cap != nullptr) {
    if (cap->isNumber()) {
      job.config.capacity = cap->asInt64();
      if (job.config.capacity < 0) {
        throw RequestError("numeric 'capacity' must be >= 0");
      }
    } else if (cap->isString() && cap->asString() == "paper") {
      job.config.capacity = PipelineConfig::kPaperCapacity;
    } else if (cap->isString() && cap->asString() == "unlimited") {
      job.config.capacity = PipelineConfig::kUnlimited;
    } else {
      throw RequestError(
          "field 'capacity' must be \"paper\", \"unlimited\" or a number");
    }
  }  // default: the paper's capacity rule (PipelineConfig)

  job.config.threads =
      fitField<unsigned>("threads", intField(request, "threads", 1));

  job.tenant = stringField(request, "tenant", "");
  constexpr std::size_t kMaxTenantLen = 64;
  if (job.tenant.size() > kMaxTenantLen) {
    throw RequestError("field 'tenant' too long (limit " +
                       std::to_string(kMaxTenantLen) + " characters)");
  }
  for (const char c : job.tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) {
      throw RequestError(
          "field 'tenant' may only contain [A-Za-z0-9_.-]");
    }
  }
  job.batch = boolField(request, "batch", false);

  job.priority = fitField<int>("priority", intField(request, "priority", 0));
  job.deadlineMs = intField(request, "deadline_ms", -1);
  return job;
}

void fillResultFields(Json& reply, const JobStatus& status,
                      const JobResult* result, bool includeSchedule) {
  reply.set("state", toString(status.state));
  if (!status.error.empty()) reply.set("error_detail", status.error);
  if (!status.errorKind.empty()) reply.set("error_kind", status.errorKind);
  if (status.attempts > 1) reply.set("attempts", status.attempts);
  if (result == nullptr) return;
  reply.set("serve", result->eval.aggregate.serve);
  reply.set("move", result->eval.aggregate.move);
  reply.set("total", result->eval.aggregate.total());
  reply.set("digest", result->digest.hex());
  reply.set("cache_hit", result->cacheHit);
  reply.set("wait_ns", result->waitNs);
  reply.set("run_ns", result->runNs);
  if (includeSchedule) reply.set("schedule", result->scheduleText);
}

}  // namespace

ProtocolHandler::ProtocolHandler(JobService& service,
                                 ProtocolOptions options)
    : service_(&service), options_(options) {}

std::string ProtocolHandler::handleLine(std::string_view line,
                                        bool* shutdownRequested) {
  if (shutdownRequested != nullptr) *shutdownRequested = false;
  if (line.size() > options_.maxFrameBytes) {
    return errorReply("frame too large (" + std::to_string(line.size()) +
                      " bytes, limit " +
                      std::to_string(options_.maxFrameBytes) + ")");
  }
  Json request;
  try {
    request = Json::parse(line);
  } catch (const JsonError& e) {
    return errorReply(std::string("parse error: ") + e.what());
  }
  if (!request.isObject()) {
    return errorReply("request must be a JSON object");
  }

  try {
    const std::string verb = stringField(request, "verb", "");
    if (verb.empty()) throw RequestError("missing field 'verb'");

    if (verb == "submit") {
      JobRequest job = parseSubmit(request, options_);
      const bool wait = boolField(request, "wait", false);
      const bool includeSchedule = boolField(request, "schedule", false);
      const SubmitOutcome outcome = service_->submit(std::move(job));
      if (!outcome.accepted) {
        return errorReply("rejected: " + outcome.reason);
      }
      Json reply;
      reply.set("ok", true)
          .set("id", outcome.id)
          .set("cached", outcome.cached);
      if (wait) {
        const auto result = service_->result(outcome.id, /*wait=*/true);
        const auto status = service_->status(outcome.id);
        fillResultFields(reply, *status, result.get(), includeSchedule);
      }
      return reply.dump();
    }

    if (verb == "submit-stream") {
      const std::string session = stringField(request, "session", "");
      if (session.empty()) {
        throw RequestError("submit-stream needs a 'session' name");
      }
      if (!validSessionName(session)) {
        throw RequestError(
            "field 'session' must be 1..64 characters of [A-Za-z0-9_.-]");
      }
      const bool includeSchedule = boolField(request, "schedule", false);
      StreamRequest stream;
      stream.session = session;
      stream.job = parseSubmit(request, options_);
      const StreamOutcome out = service_->submitStream(std::move(stream));
      if (!out.ok) {
        return errorReply(out.error, out.errorKind.empty() ? "invalid"
                                                           : out.errorKind);
      }
      Json reply;
      reply.set("ok", true)
          .set("session", out.session)
          .set("window", out.window)
          .set("incremental", out.incremental)
          .set("reused_layers", out.reusedLayers)
          .set("relaxed_layers", out.relaxedLayers)
          .set("reset", out.reset);
      if (out.result != nullptr) {
        reply.set("serve", out.result->eval.aggregate.serve)
            .set("move", out.result->eval.aggregate.move)
            .set("total", out.result->eval.aggregate.total())
            .set("digest", out.result->digest.hex())
            .set("run_ns", out.result->runNs);
        if (includeSchedule) reply.set("schedule", out.result->scheduleText);
      }
      return reply.dump();
    }

    if (verb == "stream-close") {
      const std::string session = stringField(request, "session", "");
      if (session.empty()) {
        throw RequestError("stream-close needs a 'session' name");
      }
      Json reply;
      reply.set("ok", true)
          .set("session", session)
          .set("closed", service_->closeStream(session));
      return reply.dump();
    }

    if (verb == "status") {
      const auto status = service_->status(idField(request));
      if (!status.has_value()) throw RequestError("unknown job id");
      Json reply;
      reply.set("ok", true)
          .set("state", toString(status->state))
          .set("priority", status->priority)
          .set("digest", status->digest.hex())
          .set("attempts", status->attempts);
      if (!status->error.empty()) reply.set("error_detail", status->error);
      if (!status->errorKind.empty()) {
        reply.set("error_kind", status->errorKind);
      }
      return reply.dump();
    }

    if (verb == "result") {
      const JobId id = idField(request);
      const bool wait = boolField(request, "wait", true);
      const bool includeSchedule = boolField(request, "schedule", false);
      auto status = service_->status(id);
      if (!status.has_value()) throw RequestError("unknown job id");
      const auto result = service_->result(id, wait);
      status = service_->status(id);  // state may have advanced while waiting
      if (result == nullptr && !isTerminal(status->state)) {
        throw RequestError("job not finished (state " +
                           toString(status->state) + ")");
      }
      Json reply;
      reply.set("ok", true);
      fillResultFields(reply, *status, result.get(), includeSchedule);
      return reply.dump();
    }

    if (verb == "cancel") {
      const JobId id = idField(request);
      if (!service_->status(id).has_value()) {
        throw RequestError("unknown job id");
      }
      Json reply;
      reply.set("ok", true).set("cancelled", service_->cancel(id));
      return reply.dump();
    }

    if (verb == "stats") {
      const ServiceStats s = service_->stats();
      Json reply;
      reply.set("ok", true)
          .set("queue_depth", static_cast<std::int64_t>(s.queueDepth))
          .set("running", static_cast<std::int64_t>(s.running))
          .set("accepted", s.accepted)
          .set("rejected", s.rejected)
          .set("completed", s.completed)
          .set("failed", s.failed)
          .set("cancelled", s.cancelled)
          .set("deadline_missed", s.expired)
          .set("cache_hits", s.cacheHits)
          .set("cache_misses", s.cacheMisses)
          .set("coalesced", s.coalesced)
          .set("cache_entries", static_cast<std::int64_t>(s.cacheEntries));
      service_->statsExtra(reply);  // per-array / per-tenant breakdowns
      return reply.dump();
    }

    if (verb == "shutdown") {
      if (!options_.allowShutdown) {
        throw RequestError("shutdown is disabled on this server");
      }
      if (shutdownRequested != nullptr) *shutdownRequested = true;
      Json reply;
      reply.set("ok", true).set("draining", true);
      return reply.dump();
    }

    if (verb == "fault-inject" || verb == "heal") {
      if (!options_.allowFaultInject) {
        throw RequestError("fault drift verbs are disabled on this server");
      }
      const std::string array = stringField(request, "array", "");
      if (array.empty()) throw RequestError("missing field 'array'");
      const bool heal = verb == "heal";
      std::vector<std::string> specs;
      if (!heal) {
        const Json* faults = request.find("faults");
        if (faults == nullptr || !faults->isArray() ||
            faults->asArray().empty()) {
          throw RequestError(
              "fault-inject needs 'faults', a non-empty array of spec "
              "strings");
        }
        for (const Json& item : faults->asArray()) {
          if (!item.isString()) {
            throw RequestError(
                "field 'faults' must be an array of spec strings");
          }
          specs.push_back(item.asString());
        }
      }
      const DriftOutcome out = service_->applyDrift(array, specs, heal);
      if (!out.ok) return errorReply(out.error);
      Json reply;
      reply.set("ok", true)
          .set("array", out.array)
          .set("fault_signature", out.faultSignature)
          .set("health", out.health)
          .set("alive_procs", out.aliveProcs)
          .set("dead_procs", out.deadProcs)
          .set("requeued", out.requeued)
          .set("cache_invalidated", out.cacheInvalidated);
      return reply.dump();
    }

    throw RequestError("unknown verb '" + verb + "'");
  } catch (const RequestError& e) {
    return errorReply(e.what());
  } catch (const std::exception& e) {
    return errorReply(std::string("internal error: ") + e.what(),
                      "internal");
  }
}

}  // namespace pimsched::serve
