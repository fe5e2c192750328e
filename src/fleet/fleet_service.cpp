#include "fleet/fleet_service.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "cost/array_model.hpp"
#include "obs/obs.hpp"
#include "pim/grid.hpp"
#include "serve/json.hpp"
#include "util/thread_pool.hpp"

namespace pimsched::fleet {

using serve::JobId;
using serve::JobRequest;
using serve::JobResult;
using serve::JobState;
using serve::JobStatus;
using serve::ServiceStats;
using serve::SubmitOutcome;

namespace {

/// Admission identity of a request: the empty tenant is the "default"
/// tenant for fair-share accounting (the digest still folds the raw
/// string, so protocol-level identity is untouched).
std::string tenantKey(const JobRequest& request) {
  return request.tenant.empty() ? std::string("default") : request.tenant;
}

/// What the HealthMonitor observes about an array.
ArrayFacts factsOf(const ArrayState& a) {
  ArrayFacts facts;
  facts.aliveProcs = a.aliveProcs();
  facts.totalProcs = a.rows() * a.cols();
  facts.partitioned = a.partitioned();
  facts.anyFaults = !a.healthy();
  return facts;
}

/// Dispatch attempts a job may burn before a drift-broken run is allowed
/// to fail for good (first run + requeues onto other arrays).
constexpr int kMaxDriftAttempts = 4;

/// Arrays whose shape can host a rows x cols job, whatever their health.
/// Read from the immutable configured topology, so it needs no lock; an
/// empty topology is the one any-shape array. A job with a single match
/// has no placement to choose: the selector and its input are skipped.
std::size_t shapeMatches(const std::vector<ArraySpec>& arrays, int rows,
                         int cols) {
  if (arrays.empty()) return 1;
  return static_cast<std::size_t>(
      std::count_if(arrays.begin(), arrays.end(), [&](const ArraySpec& a) {
        return a.rows == rows && a.cols == cols;
      }));
}

}  // namespace

std::vector<ProcWeight> aggregateTraceRefs(const ReferenceTrace& trace) {
  ProcId maxProc = -1;
  for (const Access& a : trace.accesses()) maxProc = std::max(maxProc, a.proc);
  std::vector<Cost> weight(static_cast<std::size_t>(maxProc + 1), 0);
  for (const Access& a : trace.accesses()) {
    weight[static_cast<std::size_t>(a.proc)] += a.weight;
  }
  std::vector<ProcWeight> out;
  for (ProcId p = 0; p <= maxProc; ++p) {
    if (weight[static_cast<std::size_t>(p)] > 0) {
      out.push_back(ProcWeight{p, weight[static_cast<std::size_t>(p)]});
    }
  }
  return out;
}

FleetService::FleetService(Config config)
    : config_(std::move(config)),
      fleet_(config_.arrays),
      selector_(fleet_, config_.policy) {
  if (config_.concurrencyPerArray == 0) config_.concurrencyPerArray = 1;
  loads_.resize(fleet_.size());
  arrayDispatched_.assign(fleet_.size(), 0);
  arrayCompleted_.assign(fleet_.size(), 0);
  arrayFailed_.assign(fleet_.size(), 0);
  faultEpoch_.assign(fleet_.size(), 0);
  modeEnterNs_ = obs::nowNs();
  health_.reset(fleet_.size(), config_.health);
  // Standing faults from the fleet spec are configuration, not drift:
  // they seed health states (a badly degraded boot spec starts
  // quarantined) without counting as flap events.
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    health_.observe(i, factsOf(fleet_.at(i)), modeEnterNs_);
  }
}

FleetService::~FleetService() { drain(); }

FleetService::Tenant& FleetService::tenantLocked(const std::string& name) {
  const auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  Tenant t;
  t.name = name;
  const auto w = config_.tenantWeights.find(name);
  if (w != config_.tenantWeights.end() && w->second > 0) t.weight = w->second;
  return tenants_.emplace(name, std::move(t)).first->second;
}

serve::StreamOutcome FleetService::submitStream(serve::StreamRequest request) {
  serve::StreamOutcome out;
  out.session = request.session;
  const SubmitOutcome queued =
      submitJob(std::move(request.job), std::move(request.session));
  if (!queued.accepted) {
    out.error = queued.reason;
    out.errorKind = "invalid";
    return out;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  const std::shared_ptr<Job> job = jobs_.at(queued.id);
  cv_.wait(lock, [&] { return serve::isTerminal(job->state); });
  jobs_.erase(queued.id);  // a window has no pollable id
  if (job->state != JobState::kDone) {
    const std::string state = serve::toString(job->state);
    out.error = job->error.empty() ? "window " + state + " before it ran"
                                   : job->error;
    out.errorKind = job->errorKind.empty() ? state : job->errorKind;
    return out;
  }
  return std::move(job->window);
}

bool FleetService::closeStream(const std::string& session) {
  return streams_.close(session);
}

SubmitOutcome FleetService::submit(JobRequest request) {
  return submitJob(std::move(request), {});
}

SubmitOutcome FleetService::submitJob(JobRequest request,
                                      std::string session) {
  if (!request.trace.finalized()) request.trace.finalize();
  const Digest digest = serve::jobDigest(request);
  // Selector input, computed outside the lock like the digest — and only
  // when the topology leaves the job a choice of arrays to price, and the
  // trace's costs fit (one that does not is placed unpriced and fails as
  // invalid when its Experiment rejects it).
  std::vector<ProcWeight> aggRefs;
  if (shapeMatches(config_.arrays, request.gridRows, request.gridCols) > 1 &&
      traceCostsFit(request.trace, request.gridRows * request.gridCols,
                    request.config.costParams)) {
    aggRefs = aggregateTraceRefs(request.trace);
  }
  const std::string tenantName = tenantKey(request);

  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_) {
    ++statRejected_;
    PIMSCHED_COUNTER_ADD("fleet.jobs.rejected", 1);
    return SubmitOutcome{false, -1, "service is draining", false};
  }

  const std::vector<std::size_t> eligible =
      fleet_.eligibleFor(request.gridRows, request.gridCols);
  if (eligible.empty()) {
    ++statRejected_;
    PIMSCHED_COUNTER_ADD("fleet.jobs.rejected", 1);
    return SubmitOutcome{
        false, -1,
        "no array in the fleet matches grid " +
            std::to_string(request.gridRows) + "x" +
            std::to_string(request.gridCols),
        false};
  }

  Tenant& tenant = tenantLocked(tenantName);

  // Health gate: placements and cache probes consider only admissible
  // arrays (quarantined ones are withheld until their cooldown passes),
  // falling back to the full eligible set when nothing is admissible so
  // an all-quarantined fleet degrades instead of deadlocking.
  const std::vector<std::size_t> admissible = admissibleEligibleLocked(
      request.gridRows, request.gridCols, obs::nowNs());

  if (config_.maxCacheEntries > 0 && session.empty()) {
    // Probe the fault signatures of the currently admissible arrays,
    // healthy ("") first: a hit under signature S is the exact answer the
    // fleet would produce by running the job on an array in state S.
    // Signatures of quarantined arrays are deliberately not probed — the
    // fleet would not place the job there, so their cached answers no
    // longer represent what it would compute.
    std::vector<const std::string*> sigs;
    for (const std::size_t i : admissible) {
      const std::string& sig = fleet_.at(i).faultSignature();
      const bool seen =
          std::any_of(sigs.begin(), sigs.end(),
                      [&](const std::string* s) { return *s == sig; });
      if (seen) continue;
      if (sig.empty()) {
        sigs.insert(sigs.begin(), &sig);
      } else {
        sigs.push_back(&sig);
      }
    }
    for (const std::string* sig : sigs) {
      const auto it = cache_.find(digest.hex() + "|" + *sig);
      if (it == cache_.end()) continue;
      ++statCacheHits_;
      ++statAccepted_;
      ++statCompleted_;
      ++tenant.submitted;
      ++tenant.completed;
      PIMSCHED_COUNTER_ADD("fleet.cache.hit", 1);
      PIMSCHED_COUNTER_ADD("fleet.jobs.accepted", 1);
      PIMSCHED_COUNTER_ADD("fleet.jobs.completed", 1);
      cacheOrder_.splice(cacheOrder_.end(), cacheOrder_, it->second.order);
      auto served = std::make_shared<JobResult>(*it->second.result);
      served->cacheHit = true;
      served->waitNs = 0;
      served->runNs = 0;
      auto job = std::make_shared<Job>();
      job->id = nextId_++;
      job->state = JobState::kDone;
      job->digest = digest;
      job->result = std::move(served);
      job->request.priority = request.priority;
      job->request.tenant = request.tenant;
      jobs_.emplace(job->id, job);
      cv_.notify_all();
      return SubmitOutcome{true, job->id, "", true};
    }
    ++statCacheMisses_;
    PIMSCHED_COUNTER_ADD("fleet.cache.miss", 1);
  }

  // An identical job already queued or running: attach instead of solving
  // twice. The follower never enters a queue; it resolves (with the exact
  // same shared JobResult) when the leader reaches a terminal state. The
  // digest folds in the tenant, so the leader is always this tenant's.
  if (const auto it = inflight_.find(digest.hex());
      it != inflight_.end() && session.empty()) {
    const std::shared_ptr<Job>& leader = it->second;
    auto job = std::make_shared<Job>();
    job->id = nextId_++;
    job->digest = digest;
    job->request.priority = request.priority;
    job->request.tenant = request.tenant;
    job->submitNs = obs::nowNs();
    job->coalescedWith = leader->id;
    leader->followers.push_back(job);
    jobs_.emplace(job->id, job);
    ++statAccepted_;
    ++statCoalesced_;
    ++tenant.submitted;
    PIMSCHED_COUNTER_ADD("fleet.jobs.accepted", 1);
    PIMSCHED_COUNTER_ADD("fleet.jobs.coalesced", 1);
    // A hotter submission drags the whole group forward in the queue.
    if (leader->state == JobState::kQueued &&
        request.priority > leader->request.priority) {
      tenant.queue.erase(std::make_pair(-leader->request.priority,
                                        leader->id));
      leader->request.priority = request.priority;
      tenant.queue.emplace(
          std::make_pair(-leader->request.priority, leader->id), leader);
    }
    return SubmitOutcome{true, job->id, "", false};
  }

  if (queuedServe_ + queuedBatch_ >= config_.maxQueueDepth) {
    ++statRejected_;
    ++tenant.rejected;
    PIMSCHED_COUNTER_ADD("fleet.jobs.rejected", 1);
    return SubmitOutcome{
        false, -1,
        "queue full (" + std::to_string(queuedServe_ + queuedBatch_) +
            " jobs queued, limit " + std::to_string(config_.maxQueueDepth) +
            ")",
        false};
  }
  if (tenant.queue.size() >= config_.tenantQueueDepth) {
    ++statRejected_;
    ++tenant.rejected;
    PIMSCHED_COUNTER_ADD("fleet.jobs.rejected", 1);
    return SubmitOutcome{
        false, -1,
        "tenant quota exceeded (tenant '" + tenantName + "' has " +
            std::to_string(tenant.queue.size()) + " jobs queued, quota " +
            std::to_string(config_.tenantQueueDepth) + ")",
        false};
  }

  // An idle tenant re-activates at the current minimum virtual work:
  // catching up is allowed, banking idle credit to later monopolize the
  // fleet is not (standard stride-scheduling re-entry).
  if (tenant.queue.empty() && tenant.running == 0) {
    double minActive = std::numeric_limits<double>::infinity();
    for (const auto& [name, other] : tenants_) {
      if (name == tenantName) continue;
      if (!other.queue.empty() || other.running > 0) {
        minActive = std::min(minActive, other.virtualWork);
      }
    }
    if (minActive != std::numeric_limits<double>::infinity()) {
      tenant.virtualWork = std::max(tenant.virtualWork, minActive);
    }
  }

  auto job = std::make_shared<Job>();
  job->id = nextId_++;
  job->request = std::move(request);
  job->digest = digest;
  job->submitNs = obs::nowNs();
  job->aggRefs = std::move(aggRefs);
  job->session = std::move(session);
  if (job->request.deadlineMs >= 0) {
    job->deadlineNs = job->submitNs + job->request.deadlineMs * 1'000'000;
  }
  jobs_.emplace(job->id, job);
  tenant.queue.emplace(std::make_pair(-job->request.priority, job->id), job);
  if (job->request.batch) {
    ++queuedBatch_;
  } else {
    ++queuedServe_;
  }
  planJobLocked(job);
  if (job->session.empty()) inflight_[digest.hex()] = job;
  ++statAccepted_;
  ++tenant.submitted;
  PIMSCHED_COUNTER_ADD("fleet.jobs.accepted", 1);
  PIMSCHED_COUNTER_ADD("fleet.queue.enqueued", 1);
  dispatchLocked();
  return SubmitOutcome{true, job->id, "", false};
}

int FleetService::effectivePriorityLocked(const Job& job,
                                          std::int64_t nowNs) const {
  int boost = 0;
  if (config_.agingMs > 0 && config_.agingLimit > 0) {
    const std::int64_t waitedMs = (nowNs - job.submitNs) / 1'000'000;
    boost = static_cast<int>(
        std::min<std::int64_t>(config_.agingLimit, waitedMs / config_.agingMs));
  }
  return job.request.priority + boost;
}

std::shared_ptr<FleetService::Job> FleetService::bestCandidateLocked(
    const Tenant& tenant, bool batch, std::int64_t nowNs,
    int* effPriority) const {
  std::shared_ptr<Job> best;
  int bestEff = 0;
  int lastPriority = 0;
  bool firstLevel = true;
  for (const auto& [key, job] : tenant.queue) {
    const int basePriority = -key.first;
    if (!firstLevel && basePriority == lastPriority) continue;
    // Only the first (oldest) queued job of each class per base-priority
    // level can be the level's best: within a level age decides.
    if (best != nullptr && basePriority + config_.agingLimit < bestEff) {
      break;  // keys descend in priority; nothing below can win
    }
    if (job->request.batch != batch) continue;
    firstLevel = false;
    lastPriority = basePriority;
    const int eff = effectivePriorityLocked(*job, nowNs);
    if (best == nullptr || eff > bestEff) {
      best = job;
      bestEff = eff;
    }
  }
  if (best != nullptr && effPriority != nullptr) *effPriority = bestEff;
  return best;
}

void FleetService::removeFromQueueLocked(const std::shared_ptr<Job>& job) {
  Tenant& tenant = tenantLocked(tenantKey(job->request));
  tenant.queue.erase(std::make_pair(-job->request.priority, job->id));
  if (job->request.batch) {
    --queuedBatch_;
  } else {
    --queuedServe_;
  }
  unplanLocked(job);
  PIMSCHED_COUNTER_ADD("fleet.queue.dequeued", 1);
}

std::vector<std::size_t> FleetService::admissibleEligibleLocked(
    int rows, int cols, std::int64_t nowNs) {
  const std::vector<std::size_t> eligible = fleet_.eligibleFor(rows, cols);
  std::vector<std::size_t> admissible;
  admissible.reserve(eligible.size());
  for (const std::size_t i : eligible) {
    const HealthState before = health_.state(i);
    if (health_.admissible(i, nowNs)) {
      if (before == HealthState::kQuarantined) {
        // Lazy hysteretic promotion out of quarantine happened just now.
        PIMSCHED_COUNTER_ADD("fleet.health.readmitted", 1);
      }
      admissible.push_back(i);
    }
  }
  return admissible.empty() ? eligible : admissible;
}

int FleetService::selectArrayLocked(const Job& job,
                                    const std::vector<std::size_t>& candidates,
                                    Cost* est) {
  *est = 0;
  if (shapeMatches(config_.arrays, job.request.gridRows,
                   job.request.gridCols) > 1) {
    const std::int64_t explicitCap = job.request.config.capacity >= 0
                                         ? job.request.config.capacity
                                         : -1;
    const int idx =
        selector_.select(job.aggRefs, job.request.trace.numData(),
                         explicitCap, candidates, loads_, est);
    if (idx >= 0) return idx;
    // No candidate can feasibly serve it (kCost): place it on the first
    // one anyway so it fails with the structured unreachable / infeasible
    // error instead of waiting forever.
    *est = 0;
  }
  return static_cast<int>(candidates.front());
}

void FleetService::planJobLocked(const std::shared_ptr<Job>& job) {
  std::vector<std::size_t> candidates = admissibleEligibleLocked(
      job->request.gridRows, job->request.gridCols, obs::nowNs());
  if (candidates.empty()) return;  // shape mismatch was rejected at submit
  // A window stays on its session's array while that array is admissible:
  // the session's warm state was built under that array's faults. A
  // requeued window is placed afresh, since its home just failed it.
  const int home = job->session.empty() || job->attempts > 0
                       ? -1
                       : streams_.home(job->session);
  if (home >= 0 && std::find(candidates.begin(), candidates.end(),
                             static_cast<std::size_t>(home)) !=
                       candidates.end()) {
    candidates.assign(1, static_cast<std::size_t>(home));
  }
  Cost est = 0;
  const int idx = selectArrayLocked(*job, candidates, &est);
  job->plannedArray = idx;
  job->estCost = est;
  loads_[static_cast<std::size_t>(idx)].queued += 1;
  loads_[static_cast<std::size_t>(idx)].outstandingWork +=
      static_cast<double>(est);
}

void FleetService::unplanLocked(const std::shared_ptr<Job>& job) {
  if (job->plannedArray < 0) return;
  const auto idx = static_cast<std::size_t>(job->plannedArray);
  if (loads_[idx].queued > 0) loads_[idx].queued -= 1;
  loads_[idx].outstandingWork -= static_cast<double>(job->estCost);
  if (loads_[idx].outstandingWork < 0) loads_[idx].outstandingWork = 0;
  job->plannedArray = -1;
}

std::int64_t FleetService::replanQueuedLocked() {
  std::int64_t moved = 0;
  for (auto& [name, tenant] : tenants_) {
    for (auto& [key, job] : tenant.queue) {
      const int before = job->plannedArray;
      unplanLocked(job);
      job->estCost = 0;
      planJobLocked(job);
      if (job->plannedArray != before) ++moved;
    }
  }
  if (moved > 0) {
    rebalance_.requeued += moved;
    PIMSCHED_COUNTER_ADD("fleet.rebalance.requeued", moved);
  }
  return moved;
}

std::int64_t FleetService::invalidateStaleCacheLocked() {
  if (cache_.empty()) return 0;
  std::vector<std::string> live;
  live.reserve(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    live.push_back(fleet_.at(i).faultSignature());
  }
  std::int64_t dropped = 0;
  for (auto it = cacheOrder_.begin(); it != cacheOrder_.end();) {
    const std::size_t bar = it->find('|');
    const std::string sig =
        bar == std::string::npos ? std::string() : it->substr(bar + 1);
    if (std::find(live.begin(), live.end(), sig) != live.end()) {
      ++it;
      continue;
    }
    cache_.erase(*it);
    it = cacheOrder_.erase(it);
    ++dropped;
  }
  if (dropped > 0) {
    rebalance_.cacheInvalidated += dropped;
    PIMSCHED_COUNTER_ADD("fleet.rebalance.cache_invalidated", dropped);
  }
  return dropped;
}

void FleetService::requeueLocked(const std::shared_ptr<Job>& job,
                                 Tenant& tenant) {
  job->state = JobState::kQueued;
  job->arrayIndex = -1;
  job->estCost = 0;
  job->arrayFaults.clear();
  tenant.queue.emplace(std::make_pair(-job->request.priority, job->id), job);
  if (job->request.batch) {
    ++queuedBatch_;
  } else {
    ++queuedServe_;
  }
  planJobLocked(job);
  PIMSCHED_COUNTER_ADD("fleet.queue.enqueued", 1);
  if (draining_) {
    ++rebalance_.drainRequeued;
    PIMSCHED_COUNTER_ADD("serve.drain.requeued", 1);
  }
}

void FleetService::expireOverdueLocked(std::int64_t nowNs) {
  std::vector<std::shared_ptr<Job>> overdue;
  for (const auto& [name, tenant] : tenants_) {
    for (const auto& [key, job] : tenant.queue) {
      if (job->deadlineNs >= 0 && nowNs > job->deadlineNs) {
        overdue.push_back(job);
      }
    }
  }
  for (const std::shared_ptr<Job>& job : overdue) {
    removeFromQueueLocked(job);
    finishLocked(*job, JobState::kExpired);
  }
}

std::size_t FleetService::freeSlotsLocked() const {
  std::size_t free = 0;
  for (const ArrayLoad& load : loads_) {
    if (load.running < config_.concurrencyPerArray) {
      free += config_.concurrencyPerArray - load.running;
    }
  }
  return free;
}

void FleetService::switchModeLocked(bool toBatch) {
  if (batchMode_ == toBatch) return;
  const std::int64_t now = obs::nowNs();
#ifndef PIMSCHED_NO_OBS
  auto& reg = obs::Registry::instance();
  reg.counter(batchMode_ ? "fleet.mode.batch_ns" : "fleet.mode.serve_ns")
      .add(now - modeEnterNs_);
#endif
  batchMode_ = toBatch;
  modeEnterNs_ = now;
  ++modeSwitches_;
  PIMSCHED_COUNTER_ADD("fleet.mode.switches", 1);
}

bool FleetService::dispatchClassLocked(bool batch, std::int64_t nowNs) {
  struct Candidate {
    int effPriority = 0;
    Tenant* tenant = nullptr;
    std::shared_ptr<Job> job;
  };
  std::vector<Candidate> candidates;
  for (auto& [name, tenant] : tenants_) {
    int eff = 0;
    std::shared_ptr<Job> job = bestCandidateLocked(tenant, batch, nowNs, &eff);
    if (job != nullptr) {
      candidates.push_back(Candidate{eff, &tenant, std::move(job)});
    }
  }
  if (candidates.empty()) return false;
  const bool contended = candidates.size() >= 2;
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.effPriority != b.effPriority) {
                return a.effPriority > b.effPriority;
              }
              if (a.tenant->virtualWork != b.tenant->virtualWork) {
                return a.tenant->virtualWork < b.tenant->virtualWork;
              }
              return a.tenant->name < b.tenant->name;
            });

  for (Candidate& candidate : candidates) {
    const std::shared_ptr<Job>& job = candidate.job;
    std::vector<std::size_t> eligible = admissibleEligibleLocked(
        job->request.gridRows, job->request.gridCols, nowNs);
    eligible.erase(
        std::remove_if(eligible.begin(), eligible.end(),
                       [&](std::size_t i) {
                         return loads_[i].running >=
                                config_.concurrencyPerArray;
                       }),
        eligible.end());
    if (eligible.empty()) continue;  // all placeable arrays busy

    // Honour the job's planned placement when the plan is still viable —
    // the plan already carries the selector's estimate and keeps dispatch
    // consistent with the backlog accounting the plan charged. A stale
    // plan (array busy, quarantined, or drifted away) re-selects.
    const int planned = job->plannedArray;
    Cost est = job->estCost;
    int idx = planned;
    if (planned < 0 ||
        std::find(eligible.begin(), eligible.end(),
                  static_cast<std::size_t>(planned)) == eligible.end()) {
      idx = selectArrayLocked(*job, eligible, &est);
    }

    removeFromQueueLocked(job);
    job->state = JobState::kRunning;
    ++job->attempts;
    job->arrayIndex = idx;
    job->estCost = est;
    // Snapshot the hosting array's fault state: the run must never read
    // fleet state without the lock (a drift swaps the ArrayState), and a
    // run whose epoch no longer matches at the end must run again.
    job->arrayFaults =
        fleet_.at(static_cast<std::size_t>(idx)).canonicalFaults();
    job->faultEpoch = faultEpoch_[static_cast<std::size_t>(idx)];
    loads_[static_cast<std::size_t>(idx)].running += 1;
    loads_[static_cast<std::size_t>(idx)].outstandingWork +=
        static_cast<double>(est);
    ++arrayDispatched_[static_cast<std::size_t>(idx)];
    Tenant& tenant = *candidate.tenant;
    tenant.running += 1;
    tenant.virtualWork += 1.0 / tenant.weight;
    ++tenant.dispatched;
    if (contended) ++tenant.contended;
    if (batch) {
      ++batchDispatches_;
      PIMSCHED_COUNTER_ADD("fleet.dispatch.batch", 1);
    } else {
      ++serveDispatches_;
      PIMSCHED_COUNTER_ADD("fleet.dispatch.serve", 1);
    }
    if (config_.onDispatch) {
      config_.onDispatch(job->id, fleet_.at(static_cast<std::size_t>(idx)).name(),
                         tenant.name);
    }
    std::shared_ptr<Job> launched = job;
    ThreadPool::global().submit([this, launched] { runJob(launched); });
    return true;
  }
  return false;
}

void FleetService::dispatchLocked() {
  const std::int64_t nowNs = obs::nowNs();
  expireOverdueLocked(nowNs);
  while (freeSlotsLocked() > 0 && queuedServe_ + queuedBatch_ > 0) {
    // Drain-threshold mode switch: batch work is preferred only while the
    // latency-sensitive backlog is at or below the threshold.
    const bool preferBatch =
        queuedBatch_ > 0 && queuedServe_ <= config_.drainThreshold;
    switchModeLocked(preferBatch);
    // The mode sets preference, not exclusivity: a free slot never idles
    // while any dispatchable job of either class exists.
    if (!dispatchClassLocked(batchMode_, nowNs) &&
        !dispatchClassLocked(!batchMode_, nowNs)) {
      break;
    }
  }
}

void FleetService::cacheInsertLocked(
    const std::string& key, std::shared_ptr<const JobResult> result) {
  if (config_.maxCacheEntries == 0) return;
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.result = std::move(result);
    cacheOrder_.splice(cacheOrder_.end(), cacheOrder_, it->second.order);
    return;
  }
  cacheOrder_.push_back(key);
  CacheEntry entry{std::move(result), std::prev(cacheOrder_.end())};
  cache_.emplace(key, std::move(entry));
  while (cacheOrder_.size() > config_.maxCacheEntries) {
    cache_.erase(cacheOrder_.front());
    cacheOrder_.pop_front();
  }
}

void FleetService::finishLocked(Job& job, JobState state) {
  job.state = state;
  Tenant& tenant = tenantLocked(tenantKey(job.request));
  switch (state) {
    case JobState::kDone:
      ++statCompleted_;
      ++tenant.completed;
      PIMSCHED_COUNTER_ADD("fleet.jobs.completed", 1);
      break;
    case JobState::kFailed:
      ++statFailed_;
      ++tenant.failed;
      PIMSCHED_COUNTER_ADD("fleet.jobs.failed", 1);
      break;
    case JobState::kCancelled:
      ++statCancelled_;
      PIMSCHED_COUNTER_ADD("fleet.jobs.cancelled", 1);
      break;
    case JobState::kExpired:
      ++statExpired_;
      PIMSCHED_COUNTER_ADD("fleet.jobs.deadline_missed", 1);
      break;
    default: break;
  }
  if (!job.followers.empty()) {
    if (state == JobState::kDone || state == JobState::kFailed) {
      // Fan the leader's outcome out to every coalesced follower: one
      // solve, K identical results (the very same shared JobResult).
      for (const std::shared_ptr<Job>& follower : job.followers) {
        follower->result = job.result;
        follower->error = job.error;
        follower->errorKind = job.errorKind;
        follower->attempts = job.attempts;
        follower->coalescedWith = -1;
        finishLocked(*follower, state);
      }
      job.followers.clear();
    } else {
      // The leader was cancelled or expired before running, but its
      // followers still want the answer: the first follower takes over
      // the payload (copied before this job releases it below) and the
      // leader's place in the queue.
      std::shared_ptr<Job> heir = job.followers.front();
      job.followers.erase(job.followers.begin());
      heir->followers = std::move(job.followers);
      job.followers.clear();
      for (const std::shared_ptr<Job>& follower : heir->followers) {
        follower->coalescedWith = heir->id;
      }
      heir->coalescedWith = -1;
      const int heirPriority = heir->request.priority;
      heir->request = job.request;
      heir->request.priority = heirPriority;
      heir->request.deadlineMs = -1;  // followers carry no deadline
      heir->deadlineNs = -1;
      heir->aggRefs = job.aggRefs;
      requeueLocked(heir, tenant);
      inflight_[heir->digest.hex()] = heir;
    }
  }
  // Terminal jobs stop being a coalescing join point (unless a promoted
  // heir has just taken the slot over).
  const auto it = inflight_.find(job.digest.hex());
  if (it != inflight_.end() && it->second.get() == &job) inflight_.erase(it);
  // Keep what status() and result() report; release the payload.
  JobRequest spent;
  spent.priority = job.request.priority;
  spent.tenant = std::move(job.request.tenant);
  job.request = std::move(spent);
  job.aggRefs = std::vector<ProcWeight>();
  job.arrayFaults = std::vector<std::string>();
  cv_.notify_all();
}

void FleetService::runJob(const std::shared_ptr<Job>& job) {
  const std::int64_t startNs = obs::nowNs();
  const int attempt = job->attempts - 1;
  const auto idx = static_cast<std::size_t>(job->arrayIndex);
  std::shared_ptr<JobResult> result;
  serve::JobError error;
  // Mid-run drift: each run uses the fault state captured at dispatch. If
  // the array drifted since, the outcome (result or failure) no longer
  // answers "what would this job cost on that array", so the job runs
  // again under the live faults, until a run ends with the epoch still
  // current (the array may drift again while a run is unlocked). The
  // job's running slot stays charged throughout, so drain() and the
  // dispatcher both see it as in flight. An invalid request fails at
  // once: no fault state can make it schedulable.
  bool reran = false;
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  while (true) {
    try {
      PIMSCHED_SCOPED_TIMER("fleet.job.run");
      if (!reran && config_.onJobAttempt) config_.onJobAttempt(attempt);
      if (job->session.empty()) {
        result = executeJobRequest(job->request, job->arrayFaults);
      } else {
        job->window = streams_.step(job->session, job->request,
                                    job->arrayFaults, static_cast<int>(idx));
        result = job->window.result;
      }
      result->digest = job->digest;
    } catch (...) {
      error = serve::classifyJobError(std::current_exception());
      result.reset();
    }
    lock.lock();
    if (job->faultEpoch == faultEpoch_[idx] ||
        (result == nullptr && error.kind == "invalid")) {
      break;
    }
    job->arrayFaults = fleet_.at(idx).canonicalFaults();
    job->faultEpoch = faultEpoch_[idx];
    reran = true;
    ++rebalance_.resolved;
    PIMSCHED_COUNTER_ADD("fleet.rebalance.resolved", 1);
    lock.unlock();
  }
  const std::int64_t endNs = obs::nowNs();
  // A run the drift broke did nothing wrong on its own account; another
  // array may still serve it. With no other eligible array there is
  // nowhere to go: this array has not changed since the failing run, so a
  // second dispatch would recompute the same failure.
  bool driftBroken = result == nullptr && reran && error.kind != "invalid";
  if (driftBroken) {
    const std::vector<std::size_t> eligible = fleet_.eligibleFor(
        job->request.gridRows, job->request.gridCols);
    driftBroken = std::any_of(eligible.begin(), eligible.end(),
                              [idx](std::size_t i) { return i != idx; });
  }

  loads_[idx].running -= 1;
  loads_[idx].outstandingWork -= static_cast<double>(job->estCost);
  if (loads_[idx].outstandingWork < 0) loads_[idx].outstandingWork = 0;
  Tenant& tenant = tenantLocked(tenantKey(job->request));
  tenant.running -= 1;
  if (result != nullptr) {
    result->waitNs = startNs - job->submitNs;
    result->runNs = endNs - startNs;
#ifndef PIMSCHED_NO_OBS
    obs::Registry::instance().timer("fleet.job.wait").record(result->waitNs);
#endif
    tenant.maxWaitNs = std::max(tenant.maxWaitNs, result->waitNs);
    ++arrayCompleted_[idx];
    job->result = result;
    if (job->faultEpoch != faultEpoch_[idx]) {
      // Structurally unreachable — the loop above runs until the epochs
      // match and the lock has been held since. Kept as the closed-loop
      // tripwire the chaos bench gates on.
      ++rebalance_.staleServed;
      PIMSCHED_COUNTER_ADD("fleet.health.stale_served", 1);
    }
    cacheInsertLocked(
        job->digest.hex() + "|" + fleet_.at(idx).faultSignature(), result);
    health_.onJobSuccess(idx);
    finishLocked(*job, JobState::kDone);
  } else if (driftBroken && job->attempts < kMaxDriftAttempts) {
    // The job did nothing wrong — the mesh changed under it. Requeue so
    // the dispatcher places it elsewhere, even mid-drain: a SIGTERM
    // drain must not strand work the drift displaced.
    PIMSCHED_COUNTER_ADD("fleet.job.retry", 1);
    requeueLocked(job, tenant);
  } else if (error.transient && attempt == 0 && !draining_) {
    PIMSCHED_COUNTER_ADD("fleet.job.retry", 1);
    requeueLocked(job, tenant);
  } else {
    ++arrayFailed_[idx];
    if (!fleet_.at(idx).anyShape() &&
        (error.kind == "unreachable" || error.kind == "internal")) {
      // Errors that indict the mesh (not the request's own inputs) feed
      // the failure-streak quarantine. The any-shape array has no mesh of
      // its own to indict.
      health_.onJobFailure(idx, obs::nowNs());
    }
    job->error = std::move(error.message);
    job->errorKind = std::move(error.kind);
    finishLocked(*job, JobState::kFailed);
  }
  dispatchLocked();
  cv_.notify_all();
}

std::optional<JobStatus> FleetService::status(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobStatus s;
  s.state = job.state;
  s.priority = job.request.priority;
  s.digest = job.digest;
  s.error = job.error;
  s.errorKind = job.errorKind;
  s.attempts = job.attempts;
  return s;
}

std::shared_ptr<const JobResult> FleetService::result(JobId id, bool wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return nullptr;
  const std::shared_ptr<Job> job = it->second;
  if (wait) {
    cv_.wait(lock, [&] { return serve::isTerminal(job->state); });
  }
  return serve::isTerminal(job->state) ? job->result : nullptr;
}

bool FleetService::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job>& job = it->second;
  if (job->state != JobState::kQueued) return false;
  if (job->coalescedWith >= 0) {
    // A coalesced follower: detach it from its leader; the leader (and
    // any other followers) are unaffected.
    const auto leaderIt = jobs_.find(job->coalescedWith);
    if (leaderIt != jobs_.end()) {
      auto& followers = leaderIt->second->followers;
      followers.erase(std::find(followers.begin(), followers.end(), job));
    }
    job->coalescedWith = -1;
    finishLocked(*job, JobState::kCancelled);
    return true;
  }
  removeFromQueueLocked(job);
  finishLocked(*job, JobState::kCancelled);
  // A cancelled leader hands over to its first follower; give the heir a
  // slot if one is free.
  dispatchLocked();
  return true;
}

ServiceStats FleetService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.queueDepth = queuedServe_ + queuedBatch_;
  std::size_t running = 0;
  for (const ArrayLoad& load : loads_) running += load.running;
  s.running = running;
  s.accepted = statAccepted_;
  s.rejected = statRejected_;
  s.completed = statCompleted_;
  s.failed = statFailed_;
  s.cancelled = statCancelled_;
  s.expired = statExpired_;
  s.cacheHits = statCacheHits_;
  s.cacheMisses = statCacheMisses_;
  s.coalesced = statCoalesced_;
  s.cacheEntries = cache_.size();
  return s;
}

FleetService::FleetStats FleetService::fleetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FleetStats out;
  out.policy = selector_.policy();
  out.batchMode = batchMode_;
  out.modeSwitches = modeSwitches_;
  out.serveDispatches = serveDispatches_;
  out.batchDispatches = batchDispatches_;
  out.arrays.reserve(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const ArrayState& a = fleet_.at(i);
    ArrayStatsRow row;
    row.name = a.name();
    row.rows = a.rows();
    row.cols = a.cols();
    row.aliveProcs = a.aliveProcs();
    row.deadProcs = a.deadProcs();
    row.deadLinks = a.deadLinks();
    row.healthy = a.healthy();
    row.health = toString(health_.state(i));
    row.driftEpoch = faultEpoch_[i];
    row.running = loads_[i].running;
    row.planned = loads_[i].queued;
    row.dispatched = arrayDispatched_[i];
    row.completed = arrayCompleted_[i];
    row.failed = arrayFailed_[i];
    row.outstandingWork = loads_[i].outstandingWork;
    out.arrays.push_back(std::move(row));
  }
  out.tenants.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStatsRow row;
    row.name = name;
    row.weight = t.weight;
    row.queued = t.queue.size();
    row.running = t.running;
    row.submitted = t.submitted;
    row.dispatched = t.dispatched;
    row.contended = t.contended;
    row.completed = t.completed;
    row.failed = t.failed;
    row.rejected = t.rejected;
    row.maxWaitNs = t.maxWaitNs;
    out.tenants.push_back(std::move(row));
  }
  out.rebalance = rebalance_;
  return out;
}

void FleetService::statsExtra(serve::Json& reply) const {
  const FleetStats s = fleetStats();
  serve::Json::Object fleetObj;
  fleetObj.emplace("policy", serve::Json(toString(s.policy)));
  fleetObj.emplace("mode", serve::Json(s.batchMode ? "batch" : "serve"));
  fleetObj.emplace("mode_switches", serve::Json(s.modeSwitches));
  fleetObj.emplace("serve_dispatches", serve::Json(s.serveDispatches));
  fleetObj.emplace("batch_dispatches", serve::Json(s.batchDispatches));
  serve::Json::Array arrays;
  for (const ArrayStatsRow& a : s.arrays) {
    serve::Json::Object row;
    row.emplace("name", serve::Json(a.name));
    row.emplace("grid", serve::Json(a.rows == 0
                                        ? std::string("any")
                                        : std::to_string(a.rows) + "x" +
                                              std::to_string(a.cols)));
    row.emplace("alive_procs", serve::Json(a.aliveProcs));
    row.emplace("dead_procs", serve::Json(a.deadProcs));
    row.emplace("dead_links", serve::Json(a.deadLinks));
    row.emplace("healthy", serve::Json(a.healthy));
    row.emplace("health", serve::Json(a.health));
    row.emplace("drift_epoch", serve::Json(a.driftEpoch));
    row.emplace("running", serve::Json(static_cast<std::int64_t>(a.running)));
    row.emplace("planned", serve::Json(static_cast<std::int64_t>(a.planned)));
    row.emplace("dispatched", serve::Json(a.dispatched));
    row.emplace("completed", serve::Json(a.completed));
    row.emplace("failed", serve::Json(a.failed));
    row.emplace("outstanding_work", serve::Json(a.outstandingWork));
    arrays.push_back(serve::Json(std::move(row)));
  }
  fleetObj.emplace("arrays", serve::Json(std::move(arrays)));
  serve::Json::Array tenants;
  for (const TenantStatsRow& t : s.tenants) {
    serve::Json::Object row;
    row.emplace("name", serve::Json(t.name));
    row.emplace("weight", serve::Json(t.weight));
    row.emplace("queued", serve::Json(static_cast<std::int64_t>(t.queued)));
    row.emplace("running", serve::Json(static_cast<std::int64_t>(t.running)));
    row.emplace("submitted", serve::Json(t.submitted));
    row.emplace("dispatched", serve::Json(t.dispatched));
    row.emplace("contended", serve::Json(t.contended));
    row.emplace("completed", serve::Json(t.completed));
    row.emplace("failed", serve::Json(t.failed));
    row.emplace("rejected", serve::Json(t.rejected));
    row.emplace("max_wait_ms",
                serve::Json(static_cast<double>(t.maxWaitNs) / 1e6));
    tenants.push_back(serve::Json(std::move(row)));
  }
  fleetObj.emplace("tenants", serve::Json(std::move(tenants)));
  serve::Json::Object rebalance;
  rebalance.emplace("drift_events", serve::Json(s.rebalance.driftEvents));
  rebalance.emplace("requeued", serve::Json(s.rebalance.requeued));
  rebalance.emplace("resolved", serve::Json(s.rebalance.resolved));
  rebalance.emplace("cache_invalidated",
                    serve::Json(s.rebalance.cacheInvalidated));
  rebalance.emplace("drain_requeued", serve::Json(s.rebalance.drainRequeued));
  rebalance.emplace("stale_served", serve::Json(s.rebalance.staleServed));
  fleetObj.emplace("rebalance", serve::Json(std::move(rebalance)));
  reply.set("fleet", serve::Json(std::move(fleetObj)));
}

void FleetService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  cv_.wait(lock, [&] {
    if (queuedServe_ + queuedBatch_ > 0) return false;
    for (const ArrayLoad& load : loads_) {
      if (load.running > 0) return false;
    }
    return true;
  });
}

serve::DriftOutcome FleetService::applyDrift(
    const std::string& array, const std::vector<std::string>& specs,
    bool heal) {
  serve::DriftOutcome out;
  out.array = array;
  if (config_.arrays.empty()) {
    out.error =
        "the any-shape array cannot drift: fault drift needs named arrays "
        "(start the daemon with --fleet)";
    return out;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const int found = fleet_.find(array);
  if (found < 0) {
    out.error = "no array named '" + array + "' in the fleet";
    return out;
  }
  const auto idx = static_cast<std::size_t>(found);
  const ArrayState& state = fleet_.at(idx);

  // Validate the request and detect no-ops on a probe map before touching
  // anything: a drift that would not change the fault state (heal of an
  // uninjected array, all-duplicate specs) must not bump the epoch — the
  // single-healthy-array path stays bit-identical to executeJobRequest.
  std::vector<std::string> injected = state.injectedFaults();
  bool changed = false;
  if (heal) {
    changed = !injected.empty();
    injected.clear();
  } else {
    FaultMap probe(Grid(state.rows(), state.cols()));
    applyFaultSpecs(probe, state.canonicalFaults());
    const std::size_t before = injected.size();
    try {
      applyFaultSpecs(probe, specs, &injected);
    } catch (const std::invalid_argument& e) {
      out.error = e.what();
      return out;
    }
    changed = injected.size() > before;
  }
  if (!changed) {
    out.ok = true;
    out.faultSignature = state.faultSignature();
    out.health = toString(health_.state(idx));
    out.aliveProcs = state.aliveProcs();
    out.deadProcs = state.deadProcs();
    return out;
  }

  fleet_.drift(idx, std::move(injected));
  ++faultEpoch_[idx];
  ++rebalance_.driftEvents;
  PIMSCHED_COUNTER_ADD("fleet.health.drift_events", 1);

  const ArrayState& fresh = fleet_.at(idx);
  const HealthState before = health_.state(idx);
  const HealthState after =
      health_.onDrift(idx, factsOf(fresh), obs::nowNs());
  if (after != before) {
    if (after == HealthState::kDegraded) {
      PIMSCHED_COUNTER_ADD("fleet.health.degraded", 1);
    } else if (after == HealthState::kQuarantined) {
      PIMSCHED_COUNTER_ADD("fleet.health.quarantined", 1);
    }
    if (before == HealthState::kQuarantined) {
      PIMSCHED_COUNTER_ADD("fleet.health.readmitted", 1);
    }
  }

  out.cacheInvalidated = invalidateStaleCacheLocked();
  out.requeued = replanQueuedLocked();
  out.ok = true;
  out.faultSignature = fresh.faultSignature();
  out.health = toString(after);
  out.aliveProcs = fresh.aliveProcs();
  out.deadProcs = fresh.deadProcs();
  dispatchLocked();
  cv_.notify_all();
  return out;
}

}  // namespace pimsched::fleet
