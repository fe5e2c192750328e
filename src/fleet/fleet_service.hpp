#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/health.hpp"
#include "fleet/selector.hpp"
#include "serve/service.hpp"
#include "serve/stream.hpp"

namespace pimsched::fleet {

/// The job engine: co-schedules a job stream across a fleet of PIM arrays
/// behind the JobService interface the protocol handler and daemon talk
/// to. A Config with no arrays serves one healthy *any-shape* array (see
/// ArrayState): every grid shape is accepted, the selector never runs
/// (the array is the only candidate), and the fault-inject / heal verbs
/// answer ok == false — the single-array daemon is exactly this.
///
/// Admission is tenant-aware. Each tenant owns a priority queue; dispatch
/// picks the tenant candidate with the highest *effective* priority —
/// base priority plus an aging boost of one level per `agingMs` waited,
/// capped at `agingLimit`, so a starved low-priority tenant eventually
/// outranks a flood of fresh high-priority work. Effective-priority ties
/// break by weighted fair shares via stride scheduling: each dispatch
/// charges the tenant 1/weight of virtual work and the tenant with the
/// least virtual work goes first (an idle tenant re-activates at the
/// current minimum so it cannot bank credit), with the tenant name as the
/// final deterministic tie-break. Per-tenant backpressure: a tenant may
/// hold at most `tenantQueueDepth` queued jobs; the fleet-wide bound is
/// `maxQueueDepth`.
///
/// Array placement per dispatched job goes through ArraySelector
/// (cost | roundrobin | leastloaded, from Config::policy). A job placed on
/// an array runs with the array's canonical standing faults merged in
/// front of its own specs; on a healthy array this is byte-identical to
/// executeJobRequest on the request alone. The selector (and the
/// whole-trace reference aggregate it reads) is skipped for a job whose
/// shape only one array of the topology can host.
///
/// Coalescing: a submission whose digest (which folds in the tenant)
/// matches a job already queued or running does not enqueue a second
/// solve — it attaches to the in-flight leader as a follower, and every
/// follower resolves with the leader's very JobResult (or its failure),
/// including one re-run after mid-run drift. A hotter follower
/// raises a queued leader's priority; a leader cancelled or expired
/// before it ran hands its payload to its first follower, which takes
/// its place in the queue. Cancelling a follower only detaches it.
///
/// Streaming windows (submitStream) are jobs too: a window passes
/// submit's admission checks and deadline, is dispatched and run like any
/// job and obeys the same mid-run drift rule, but it never probes the
/// result cache or coalesces (each window must advance its session), is
/// planned on the array its session last ran on while that array is
/// admissible, and runs its session's warm step under the array's faults
/// instead of a cold pipeline. A session's warm state is rebuilt exactly
/// when its compat digest, which folds in the array faults, changes; so a
/// drift before or during a window re-solves it cold under the live
/// faults. The window's record is dropped once its caller has the reply.
///
/// Memory: a job that reaches a terminal state keeps its id, priority,
/// tenant, digest, status and result, and releases its payload (trace,
/// reference aggregate, copied array faults), so a long-lived daemon
/// holds no trace per finished job.
///
/// Batch/serve mode switch (drain-threshold, after the GPGPU-Sim
/// dyn-thresh DRAM scheduler): requests marked `batch` only start while
/// the latency-sensitive serve backlog is at or below `drainThreshold`;
/// once it grows past the threshold the dispatcher flips back to serve
/// mode. The switch changes which class is *preferred*, never idles a
/// free slot while any dispatchable job exists, and counts its
/// transitions and per-mode occupancy.
///
/// The result cache is a true LRU keyed by jobDigest | array fault
/// signature: all healthy arrays of one shape share entries (signature
/// ""), while a result computed on a degraded array never masquerades as
/// the healthy answer. A submit probes the signatures of the arrays
/// currently eligible for its shape, healthy first.
///
/// Live fault drift (applyDrift / the fault-inject and heal protocol
/// verbs): an array's fault state can change while the daemon runs. Each
/// drift event atomically swaps the array's state (new fault signature),
/// bumps the array's fault epoch, lets the HealthMonitor reclassify it
/// (healthy / degraded / quarantined with re-admission hysteresis),
/// re-plans every queued job through the selector, and invalidates
/// result-cache entries whose signature no longer matches any live
/// array. Placement avoids quarantined arrays whenever an admissible
/// alternative exists, and queued jobs carry a *planned* array (what a
/// drift re-plans). A job whose array drifted mid-run runs again under
/// the array's live faults before anything is served, success or
/// failure alike, so every served result is exactly what a fresh submit
/// would produce now and is cached like one — never served stale. A
/// re-run that fails requeues onto another array instead of failing,
/// even while draining (counted serve.drain.requeued), so a SIGTERM
/// drain cannot strand displaced work.
///
/// Counters: fleet.jobs.{accepted,rejected,completed,failed,cancelled,
/// deadline_missed,coalesced}, fleet.cache.{hit,miss},
/// fleet.queue.{enqueued,dequeued}, fleet.job.retry,
/// fleet.mode.{switches,serve_ns,batch_ns},
/// fleet.dispatch.{serve,batch}, fleet.health.{drift_events,degraded,
/// quarantined,readmitted,stale_served}, fleet.rebalance.{requeued,
/// resolved,cache_invalidated}, serve.drain.requeued; timers
/// fleet.job.wait / fleet.job.run. Per-tenant figures are not counters
/// (tenant names come from clients, so their number is unbounded): they
/// live in the tenant records and reach clients as the `stats` reply's
/// fleet.tenants rows.
class FleetService final : public serve::JobService {
 public:
  struct Config {
    /// The fleet topology; empty = one healthy any-shape array.
    std::vector<ArraySpec> arrays;
    FleetPolicy policy = FleetPolicy::kCost;
    /// Jobs in flight at once per array.
    unsigned concurrencyPerArray = 1;
    /// Fleet-wide queued-job bound; submissions past it are rejected.
    std::size_t maxQueueDepth = 256;
    /// Per-tenant queued-job quota; a tenant at its quota is rejected
    /// with a structured reason while other tenants keep submitting.
    std::size_t tenantQueueDepth = 64;
    /// Result-cache bound (LRU entries); 0 turns the cache off: no
    /// probe, no insert, no miss count.
    std::size_t maxCacheEntries = 1024;
    /// Weighted fair shares: tenant name -> weight (> 0). Unlisted
    /// tenants get weight 1.
    std::map<std::string, double> tenantWeights;
    /// Priority aging: a queued job gains one effective priority level
    /// per agingMs waited, up to agingLimit levels. agingMs <= 0 disables
    /// aging.
    std::int64_t agingMs = 1000;
    int agingLimit = 8;
    /// Batch jobs may start while the serve backlog is <= drainThreshold.
    std::size_t drainThreshold = 0;
    /// Quarantine re-admission cooldown for live fault drift (see
    /// health.hpp).
    HealthPolicy health;
    /// Test-only hook invoked once per dispatch, at the start of the job's
    /// run, with the attempt number (0 on the first run, 1 on the retry);
    /// the re-runs a mid-run drift forces do not invoke it. Exceptions it
    /// throws are classified exactly like pipeline errors — tests use it
    /// to fake worker failures.
    std::function<void(int attempt)> onJobAttempt;
    /// Test/telemetry hook invoked (under the service lock — it must not
    /// call back into the service) at every dispatch with the job id, the
    /// hosting array's name and the tenant.
    std::function<void(serve::JobId id, const std::string& array,
                       const std::string& tenant)>
        onDispatch;
  };

  /// Deterministic snapshots for benches and the stats protocol verb.
  struct ArrayStatsRow {
    std::string name;
    int rows = 0, cols = 0;
    int aliveProcs = 0, deadProcs = 0, deadLinks = 0;
    bool healthy = true;
    std::string health;  ///< HealthMonitor verdict name
    std::int64_t driftEpoch = 0;
    std::size_t running = 0;
    std::size_t planned = 0;  ///< queued jobs currently planned here
    std::int64_t dispatched = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    double outstandingWork = 0;
  };
  /// Live-drift and rebalancing accounting (fleetStats / statsExtra).
  struct RebalanceStatsRow {
    std::int64_t driftEvents = 0;
    std::int64_t requeued = 0;  ///< queued jobs whose plan was migrated
    std::int64_t resolved = 0;  ///< runs repeated after mid-run drift
    std::int64_t cacheInvalidated = 0;
    std::int64_t drainRequeued = 0;  ///< requeues that happened mid-drain
    /// Results served from a run under a fault epoch that is no longer
    /// live. Structurally zero — the closed-loop tripwire the chaos
    /// bench gates on.
    std::int64_t staleServed = 0;
  };
  struct TenantStatsRow {
    std::string name;
    double weight = 1.0;
    std::size_t queued = 0;
    std::size_t running = 0;
    std::int64_t submitted = 0;
    std::int64_t dispatched = 0;
    /// Dispatches won while >= 2 tenants had queued work — the
    /// denominator-free fair-share signal (uncontended dispatches say
    /// nothing about weights).
    std::int64_t contended = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    std::int64_t rejected = 0;
    std::int64_t maxWaitNs = 0;
  };
  struct FleetStats {
    FleetPolicy policy = FleetPolicy::kCost;
    bool batchMode = false;
    std::int64_t modeSwitches = 0;
    std::int64_t serveDispatches = 0;
    std::int64_t batchDispatches = 0;
    std::vector<ArrayStatsRow> arrays;
    std::vector<TenantStatsRow> tenants;  ///< sorted by name
    RebalanceStatsRow rebalance;
  };

  explicit FleetService(Config config);
  ~FleetService() override;

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Finalizes the trace if needed, content-addresses the job, and either
  /// answers from the result cache (accepted + cached, job born kDone),
  /// coalesces it onto an identical in-flight job, enqueues it, or
  /// rejects it with a reason (no array for the shape, queue or tenant
  /// quota full, draining).
  serve::SubmitOutcome submit(serve::JobRequest request) override;
  /// Queues one window as a job (see the class comment) and waits for its
  /// terminal state. A rejected, failed or expired window comes back with
  /// ok == false and the reason.
  serve::StreamOutcome submitStream(serve::StreamRequest request) override;
  bool closeStream(const std::string& session) override;
  [[nodiscard]] std::optional<serve::JobStatus> status(
      serve::JobId id) const override;
  [[nodiscard]] std::shared_ptr<const serve::JobResult> result(
      serve::JobId id, bool wait = true) override;
  bool cancel(serve::JobId id) override;
  [[nodiscard]] serve::ServiceStats stats() const override;
  /// Adds a "fleet" object (policy, mode, per-array and per-tenant
  /// breakdowns) to a protocol stats reply.
  void statsExtra(serve::Json& reply) const override;
  void drain() override;
  /// Live fault drift: validates `specs` against the named array's grid,
  /// swaps in the new array state (heal == rebuild from the boot spec),
  /// bumps the fault epoch, reclassifies health, re-plans queued jobs and
  /// invalidates orphaned result-cache entries — all atomically under the
  /// service lock. A request that would not change the fault state (heal
  /// of an uninjected array, all-duplicate specs) is an ok no-op that
  /// bumps nothing. The any-shape array refuses drift (ok == false).
  serve::DriftOutcome applyDrift(const std::string& array,
                                 const std::vector<std::string>& specs,
                                 bool heal) override;

  [[nodiscard]] FleetStats fleetStats() const;
  [[nodiscard]] const ArrayFleet& fleet() const { return fleet_; }
  [[nodiscard]] FleetPolicy policy() const { return selector_.policy(); }

 private:
  struct Job {
    serve::JobId id = -1;
    serve::JobRequest request;
    serve::JobState state = serve::JobState::kQueued;
    Digest digest;
    std::string error;
    std::string errorKind;
    int attempts = 0;
    std::shared_ptr<const serve::JobResult> result;
    std::int64_t submitNs = 0;
    std::int64_t deadlineNs = -1;
    /// Whole-trace per-processor reference weights, the selector input.
    std::vector<ProcWeight> aggRefs;
    int arrayIndex = -1;    ///< hosting array while running
    int plannedArray = -1;  ///< selector's plan while queued (rebalanced
                            ///< on drift); backlog is charged to it
    Cost estCost = 0;       ///< selector estimate charged to the array
    /// Canonical faults of the hosting array, copied at dispatch so the
    /// run never reads fleet state without the lock (drift swaps it).
    std::vector<std::string> arrayFaults;
    /// The hosting array's fault epoch of the current run; a mismatch at
    /// its end means the array drifted mid-run and the job runs again.
    std::int64_t faultEpoch = 0;
    /// Identical-digest submissions riding this (leader) job: they are
    /// never queued themselves and resolve when the leader does.
    std::vector<std::shared_ptr<Job>> followers;
    /// Leader id when this job is a coalesced follower, -1 otherwise.
    serve::JobId coalescedWith = -1;
    /// Session name when the job is a stream window, empty otherwise.
    std::string session;
    /// A window's step outcome: runJob fills it, submitStream returns it.
    serve::StreamOutcome window;
  };

  struct Tenant {
    std::string name;
    double weight = 1.0;  ///< unless tenantWeights lists the tenant
    /// Stride-scheduling pass value: += 1/weight per dispatch.
    double virtualWork = 0;
    /// Queued jobs by (-basePriority, id); effective priority adds the
    /// aging boost at dispatch time.
    std::map<std::pair<int, serve::JobId>, std::shared_ptr<Job>> queue;
    std::size_t running = 0;
    std::int64_t submitted = 0, dispatched = 0, contended = 0,
                 completed = 0, failed = 0, rejected = 0, maxWaitNs = 0;
  };

  struct CacheEntry {
    std::shared_ptr<const serve::JobResult> result;
    std::list<std::string>::iterator order;
  };

  /// submit's body; a non-empty `session` makes the job a stream window
  /// (no cache probe, no coalescing).
  serve::SubmitOutcome submitJob(serve::JobRequest request,
                                 std::string session);
  /// The tenant record, created on first touch with its configured
  /// weight.
  Tenant& tenantLocked(const std::string& name);
  /// Effective priority of a queued job now: base + aging boost.
  [[nodiscard]] int effectivePriorityLocked(const Job& job,
                                            std::int64_t nowNs) const;
  /// Best queued candidate of `tenant` for the class (batch/serve),
  /// nullptr when none. Highest effective priority, then lowest id.
  [[nodiscard]] std::shared_ptr<Job> bestCandidateLocked(
      const Tenant& tenant, bool batch, std::int64_t nowNs,
      int* effPriority) const;
  void expireOverdueLocked(std::int64_t nowNs);
  /// The placement rule shared by planning and dispatch: the selector's
  /// pick among `candidates` (non-empty) with its estimate in *est, or
  /// the first candidate at estimate 0 when the shape leaves no choice to
  /// price or no candidate is feasible.
  int selectArrayLocked(const Job& job,
                        const std::vector<std::size_t>& candidates, Cost* est);
  /// Plans a queued job onto an array (admissible arrays preferred, a
  /// window's home array first, then the selector policy) and charges the
  /// backlog to it.
  void planJobLocked(const std::shared_ptr<Job>& job);
  /// Reverses planJobLocked's load accounting.
  void unplanLocked(const std::shared_ptr<Job>& job);
  /// Eligible arrays of a shape restricted to health-admissible ones;
  /// falls back to the unrestricted set when nothing is admissible so a
  /// job is never stranded by an all-quarantined fleet.
  [[nodiscard]] std::vector<std::size_t> admissibleEligibleLocked(
      int rows, int cols, std::int64_t nowNs);
  /// Re-plans every queued job (drift reaction); returns how many moved.
  std::int64_t replanQueuedLocked();
  /// Drops result-cache entries whose fault signature no live array
  /// carries any more; returns how many were invalidated.
  std::int64_t invalidateStaleCacheLocked();
  /// Puts a job into its tenant queue with a fresh plan: a drift-broken
  /// or retried run (allowed mid-drain — see serve.drain.requeued) or a
  /// follower taking over from a cancelled or expired leader.
  void requeueLocked(const std::shared_ptr<Job>& job, Tenant& tenant);
  void dispatchLocked();
  /// Dispatches the best job of the given class; returns false when no
  /// job of the class could be placed on a free array.
  bool dispatchClassLocked(bool batch, std::int64_t nowNs);
  void runJob(const std::shared_ptr<Job>& job);
  void finishLocked(Job& job, serve::JobState state);
  void removeFromQueueLocked(const std::shared_ptr<Job>& job);
  void cacheInsertLocked(const std::string& key,
                         std::shared_ptr<const serve::JobResult> result);
  [[nodiscard]] std::size_t freeSlotsLocked() const;
  void switchModeLocked(bool toBatch);

  Config config_;
  ArrayFleet fleet_;
  ArraySelector selector_;
  HealthMonitor health_;
  /// Warm streaming-session state. It owns its own locking, taken after
  /// mutex_ (planJobLocked reads a session's home) and never before.
  serve::StreamSessionManager streams_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool draining_ = false;
  bool batchMode_ = false;
  std::int64_t modeEnterNs_ = 0;
  std::int64_t modeSwitches_ = 0;
  std::int64_t serveDispatches_ = 0, batchDispatches_ = 0;
  serve::JobId nextId_ = 1;
  std::map<serve::JobId, std::shared_ptr<Job>> jobs_;
  std::map<std::string, Tenant> tenants_;
  std::size_t queuedServe_ = 0, queuedBatch_ = 0;
  /// Per-array load, indexed like fleet_.
  std::vector<ArrayLoad> loads_;
  std::vector<std::int64_t> arrayDispatched_, arrayCompleted_,
      arrayFailed_;
  /// Monotonic per-array drift counter; a running job whose captured
  /// epoch no longer matches runs again (see runJob).
  std::vector<std::int64_t> faultEpoch_;
  /// True-LRU result cache keyed by digest hex + "|" + array fault
  /// signature.
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> cacheOrder_;
  /// Non-terminal leader per digest hex, the coalescing join point.
  std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
  std::int64_t statAccepted_ = 0, statRejected_ = 0, statCompleted_ = 0,
               statFailed_ = 0, statCancelled_ = 0, statExpired_ = 0,
               statCacheHits_ = 0, statCacheMisses_ = 0,
               statCoalesced_ = 0;
  RebalanceStatsRow rebalance_;
};

/// Aggregates a finalized trace into its whole-trace per-processor
/// reference weights (sorted by ProcId) — the selector's input.
[[nodiscard]] std::vector<ProcWeight> aggregateTraceRefs(
    const ReferenceTrace& trace);

}  // namespace pimsched::fleet
