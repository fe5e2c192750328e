#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace pimsched::serve {

using JobId = std::int64_t;

/// One unit of serving work: schedule `trace` on a gridRows x gridCols
/// array with `config` using `method`, and evaluate the result.
struct JobRequest {
  ReferenceTrace trace{DataSpace{}};
  int gridRows = 4;
  int gridCols = 4;
  PipelineConfig config;
  Method method = Method::kGomcds;

  /// Fault specs (fault_trace.hpp grammar: "proc:5", "link:2-3", "row:1",
  /// "col:2", "region:1,1,2,2", "cap:7=1", "uniform-procs:3@42", ...)
  /// applied in order to the grid before scheduling. Specs that leave a
  /// fault make the job fault-aware (ArrayModel): the schedule avoids dead
  /// processors/links and is verified against the fault state.
  std::vector<std::string> faults;

  /// Owning tenant for multi-tenant admission (fleet layer). Folded into
  /// the job digest (length-prefixed, like faults), so two tenants
  /// submitting byte-identical work keep separate result-cache entries
  /// and never coalesce across the tenant boundary. Empty = the default
  /// tenant; single-tenant deployments never set it.
  std::string tenant;

  /// Marks bulk (throughput) work for the fleet's batch/serve mode
  /// switch: batch jobs only dispatch while the latency-sensitive serve
  /// backlog is drained below the configured threshold. Not part of the
  /// digest — batching is a dispatch policy, not a different answer.
  bool batch = false;

  /// Higher runs first; FIFO within a priority level.
  int priority = 0;
  /// Milliseconds from submission after which a still-queued job is
  /// dropped as deadline-missed instead of being started; < 0 = none.
  /// A job that starts in time always runs to completion.
  std::int64_t deadlineMs = -1;
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     ///< pipeline threw; error message in JobStatus::error
  kCancelled,  ///< cancelled while queued
  kExpired,    ///< deadline passed before a worker picked it up
};

[[nodiscard]] std::string toString(JobState s);
[[nodiscard]] bool isTerminal(JobState s);

/// The product of one job: evaluation result, the serialised schedule (the
/// pimsched v1 text a PIM runtime would load), the job's content digest,
/// and the per-job profile snapshot (queue wait + run time).
struct JobResult {
  EvalResult eval;
  std::string scheduleText;
  Digest digest;
  bool cacheHit = false;
  std::int64_t waitNs = 0;
  std::int64_t runNs = 0;
};

struct JobStatus {
  JobState state = JobState::kQueued;
  int priority = 0;
  Digest digest;
  std::string error;  ///< non-empty iff state == kFailed
  /// Failure class when state == kFailed: "unreachable" (the faulted mesh
  /// cannot carry the required traffic), "infeasible" (capacity), "invalid"
  /// (bad request inputs) or "internal" (unexpected; retried once).
  std::string errorKind;
  int attempts = 0;  ///< runs started (> 1 after a transient retry)
};

struct SubmitOutcome {
  bool accepted = false;
  JobId id = -1;
  std::string reason;   ///< rejection reason when !accepted
  bool cached = false;  ///< job completed instantly from the result cache
};

/// One window of a streaming session: the session name plus a complete
/// JobRequest whose trace is the *full evolving trace revision* as of this
/// window. Identical window prefixes across successive revisions are what
/// the warm solver exploits; everything except the trace must stay fixed
/// for the life of the session — a change resets the warm state (the reply
/// flags it) rather than serving a wrong-config answer.
struct StreamRequest {
  std::string session;
  JobRequest job;
};

/// Outcome of one streamed window. The window is queued and run like any
/// job (admission, deadline, placement, the mid-run drift rule), but it
/// has no pollable id: the caller waits for it, and the result comes back
/// inline.
struct StreamOutcome {
  bool ok = false;
  std::string error;      ///< why !ok
  std::string errorKind;  ///< job-error taxonomy ("invalid", "expired", ...)
  std::string session;    ///< echoed session name
  std::int64_t window = -1;  ///< 0-based window index within the session
  bool incremental = false;  ///< warm solver state was reused for this window
  std::int64_t reusedLayers = 0;   ///< per-class layers reused verbatim
  std::int64_t relaxedLayers = 0;  ///< per-class layers re-relaxed (IncrementalSolver::Stats)
  /// Warm state was (re)initialised for this window: first window of a
  /// session, a config change, an eviction, or new array faults (drift).
  bool reset = false;
  std::shared_ptr<JobResult> result;
};

struct ServiceStats {
  std::size_t queueDepth = 0;
  std::size_t running = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t expired = 0;
  std::int64_t cacheHits = 0;
  std::int64_t cacheMisses = 0;
  /// Submissions that attached to an identical job already queued or
  /// running instead of enqueuing a second solve.
  std::int64_t coalesced = 0;
  std::size_t cacheEntries = 0;
};

/// Content address of a job: mixes traceDigest, configDigest, the grid
/// shape, the method, the fault specs and the tenant, so two submissions
/// that must produce identical schedules share one digest (and one
/// result-cache entry) while any input that can change the answer — or
/// cross a tenant isolation boundary — changes it; a faulted job never
/// aliases the healthy-mesh result.
[[nodiscard]] Digest jobDigest(const JobRequest& request);

/// Failure taxonomy of a job run. Transient failures ("internal", except
/// memory exhaustion, which a second run would only repeat) are retried
/// once by the services; everything else fails immediately with a
/// structured kind.
struct JobError {
  std::string message;
  std::string kind;  ///< "unreachable" | "infeasible" | "invalid" | "internal"
  bool transient = false;
};

/// Classifies the in-flight exception of a failed job run into the
/// error_kind vocabulary and the retry policy.
[[nodiscard]] JobError classifyJobError(const std::exception_ptr& ep);

/// The scheduling pipeline of one job: build the grid, apply `arrayFaults`
/// (the hosting array's standing faults) then the request's own fault
/// specs, schedule through an Experiment over that fault state, verify
/// against it, evaluate, serialize. Throws on failure (classify with
/// classifyJobError). With empty `arrayFaults` this is the plain
/// single-array pipeline, which is what makes every healthy array — the
/// any-shape one included — bit-identical to running the job directly.
/// Fills eval/scheduleText; digest/wait/run stamps are the caller's.
[[nodiscard]] std::shared_ptr<JobResult> executeJobRequest(
    const JobRequest& request,
    const std::vector<std::string>& arrayFaults = {});

class Json;

/// Result of a live fault-drift request (`fault-inject` / `heal`) against
/// a named array. The any-shape array of a fleet without configured
/// arrays cannot drift and returns ok == false with a reason.
struct DriftOutcome {
  bool ok = false;
  std::string error;        ///< why !ok (unknown array, bad spec, ...)
  std::string array;        ///< echoed array name
  std::string faultSignature;  ///< the array's new fault signature
  std::string health;       ///< health state name after the event
  int aliveProcs = 0;
  int deadProcs = 0;
  /// Queued jobs whose planned placement moved to another array as a
  /// consequence of this event.
  std::int64_t requeued = 0;
  /// Result-cache entries invalidated because no live array carries
  /// their fault signature any more.
  std::int64_t cacheInvalidated = 0;
};

/// The serving surface the protocol layer talks to. Its one
/// implementation is fleet::FleetService (fleet/fleet_service.hpp); the
/// interface keeps the protocol and transport free of the fleet library.
class JobService {
 public:
  virtual ~JobService() = default;

  virtual SubmitOutcome submit(JobRequest request) = 0;
  [[nodiscard]] virtual std::optional<JobStatus> status(JobId id) const = 0;
  [[nodiscard]] virtual std::shared_ptr<const JobResult> result(
      JobId id, bool wait = true) = 0;
  virtual bool cancel(JobId id) = 0;
  [[nodiscard]] virtual ServiceStats stats() const = 0;
  /// Appends implementation-specific fields (per-array and per-tenant
  /// breakdowns) to a protocol stats reply.
  virtual void statsExtra(Json& reply) const = 0;
  /// Live fault drift against a named array: `heal` rebuilds the array
  /// from its boot spec, otherwise `specs` are injected on top of its
  /// current fault state.
  virtual DriftOutcome applyDrift(const std::string& array,
                                  const std::vector<std::string>& specs,
                                  bool heal) = 0;
  /// Streaming submission: queues one window of a long-lived session as a
  /// job and waits for it; the window runs with warm solver state keyed by
  /// the session name (serve/stream.hpp).
  virtual StreamOutcome submitStream(StreamRequest request) = 0;
  /// Closes a streaming session and drops its warm state; returns whether
  /// the session existed.
  virtual bool closeStream(const std::string& session) = 0;
  /// Stops accepting submissions and blocks until every accepted job has
  /// reached a terminal state. Idempotent.
  virtual void drain() = 0;
};

}  // namespace pimsched::serve
