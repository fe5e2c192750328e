#include "fleet/fleet_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "trace/trace.hpp"

namespace pimsched::fleet {
namespace {

using pimsched::Method;
using serve::JobRequest;
using serve::JobState;
using serve::SubmitOutcome;

ReferenceTrace makeTrace(int n, int steps, int weightSeed = 1) {
  ReferenceTrace trace(DataSpace::singleSquare(n));
  const int numData = n * n;
  for (int s = 0; s < steps; ++s) {
    for (int d = 0; d < numData; ++d) {
      trace.add(s, (d + s) % (n * n), d, 1 + (d + s * weightSeed) % 3);
    }
  }
  trace.finalize();
  return trace;
}

JobRequest makeRequest(int n = 4, int steps = 6,
                       Method method = Method::kGomcds) {
  JobRequest request;
  request.trace = makeTrace(n, steps);
  request.gridRows = n;
  request.gridCols = n;
  request.config.numWindows = 3;
  request.method = method;
  return request;
}

FleetService::Config healthySingleArray() {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  return config;
}

/// Records the dispatch order (array, tenant) under the service lock.
struct DispatchLog {
  std::mutex mutex;
  std::vector<std::pair<std::string, std::string>> order;

  auto hook() {
    return [this](serve::JobId, const std::string& array,
                  const std::string& tenant) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.emplace_back(array, tenant);
    };
  }
  std::vector<std::pair<std::string, std::string>> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return order;
  }
};

/// Holds every job run at its start until release() — deterministic queue
/// shaping without timing assumptions. With concurrencyPerArray=1 on a
/// single array at most one run blocks, so the shared pool never starves.
struct RunGate {
  std::promise<void> promise;
  std::shared_future<void> future{promise.get_future().share()};
  std::atomic<int> runs{0};  ///< job runs started (the hook's calls)

  auto hook() {
    auto shared = future;
    return [this, shared](int) {
      ++runs;
      shared.wait();
    };
  }
  void release() { promise.set_value(); }
};

/// The daemon's default engine: one healthy any-shape array.
FleetService::Config anyShape() {
  FleetService::Config config;
  return config;
}

/// Blocks until job `id` has been dispatched (its run parks on a gate).
void waitUntilRunning(const FleetService& service, serve::JobId id) {
  while (service.status(id)->state != JobState::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Acceptance gate: the any-shape array, a fleet of one healthy shaped array
// and the bare pipeline produce bit-identical results for the same
// requests.
// ---------------------------------------------------------------------------

TEST(FleetIdentity, SingleHealthyArrayMatchesSchedulingServiceExactly) {
  FleetService fleetService(healthySingleArray());
  FleetService plain(anyShape());

  for (const Method method :
       {Method::kGomcds, Method::kScds, Method::kGroupedGomcds}) {
    JobRequest request = makeRequest(4, 6, method);
    const SubmitOutcome viaFleet = fleetService.submit(request);
    const SubmitOutcome viaPlain = plain.submit(makeRequest(4, 6, method));
    ASSERT_TRUE(viaFleet.accepted);
    ASSERT_TRUE(viaPlain.accepted);
    const auto fleetResult = fleetService.result(viaFleet.id);
    const auto plainResult = plain.result(viaPlain.id);
    ASSERT_NE(fleetResult, nullptr);
    ASSERT_NE(plainResult, nullptr);
    // Same digest (content addressing agrees), same schedule text (the
    // pipeline ran identically) and same evaluated costs.
    EXPECT_EQ(fleetResult->digest.hex(), plainResult->digest.hex());
    EXPECT_EQ(fleetResult->scheduleText, plainResult->scheduleText);
    EXPECT_EQ(fleetResult->eval.aggregate.serve,
              plainResult->eval.aggregate.serve);
    EXPECT_EQ(fleetResult->eval.aggregate.move,
              plainResult->eval.aggregate.move);
    // And both are exactly the bare single-array pipeline.
    const auto direct = serve::executeJobRequest(request);
    EXPECT_EQ(plainResult->scheduleText, direct->scheduleText);
    EXPECT_EQ(plainResult->eval.aggregate.serve, direct->eval.aggregate.serve);
    EXPECT_EQ(plainResult->eval.aggregate.move, direct->eval.aggregate.move);
  }
}

TEST(FleetIdentity, RequestFaultsBehaveIdenticallyOnAHealthyArray) {
  FleetService fleetService(healthySingleArray());
  FleetService plain(anyShape());

  JobRequest request = makeRequest();
  request.faults = {"proc:5", "link:0-1"};
  JobRequest same = makeRequest();
  same.faults = request.faults;

  const SubmitOutcome viaFleet = fleetService.submit(std::move(request));
  const SubmitOutcome viaPlain = plain.submit(std::move(same));
  ASSERT_TRUE(viaFleet.accepted);
  ASSERT_TRUE(viaPlain.accepted);
  const auto fleetResult = fleetService.result(viaFleet.id);
  const auto plainResult = plain.result(viaPlain.id);
  ASSERT_NE(fleetResult, nullptr);
  ASSERT_NE(plainResult, nullptr);
  EXPECT_EQ(fleetResult->digest.hex(), plainResult->digest.hex());
  EXPECT_EQ(fleetResult->scheduleText, plainResult->scheduleText);
  EXPECT_EQ(fleetResult->eval.aggregate.total(),
            plainResult->eval.aggregate.total());
}

TEST(FleetIdentity, StandingArrayFaultsEqualRequestFaults) {
  // A job on an array with standing faults must produce exactly what the
  // any-shape array produces when the same specs ride on the request.
  FleetService::Config config;
  config.arrays = parseFleetSpec("hurt=4x4:proc:5+link:0-1");
  FleetService fleetService(std::move(config));
  FleetService plain(anyShape());

  const SubmitOutcome viaFleet = fleetService.submit(makeRequest());
  JobRequest withFaults = makeRequest();
  withFaults.faults = {"proc:5", "link:0-1"};
  const SubmitOutcome viaPlain = plain.submit(std::move(withFaults));
  ASSERT_TRUE(viaFleet.accepted);
  ASSERT_TRUE(viaPlain.accepted);
  const auto fleetResult = fleetService.result(viaFleet.id);
  const auto plainResult = plain.result(viaPlain.id);
  ASSERT_NE(fleetResult, nullptr);
  ASSERT_NE(plainResult, nullptr);
  // Digests differ (the fleet job carries no request faults); the work —
  // the schedule and its cost — is identical.
  EXPECT_EQ(fleetResult->scheduleText, plainResult->scheduleText);
  EXPECT_EQ(fleetResult->eval.aggregate.total(),
            plainResult->eval.aggregate.total());
}

// ---------------------------------------------------------------------------
// Admission and placement.
// ---------------------------------------------------------------------------

TEST(FleetService, RejectsShapesNoArrayCanHost) {
  FleetService fleetService(healthySingleArray());
  const SubmitOutcome outcome = fleetService.submit(makeRequest(8, 2));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.reason.find("no array in the fleet matches grid 8x8"),
            std::string::npos);
}

TEST(FleetService, CostPolicyRoutesAroundTheFaultedArray) {
  DispatchLog log;
  FleetService::Config config;
  config.arrays = parseFleetSpec("bad=4x4:proc:5+proc:6+proc:9;good=4x4");
  config.onDispatch = log.hook();
  FleetService fleetService(std::move(config));

  const SubmitOutcome outcome = fleetService.submit(makeRequest());
  ASSERT_TRUE(outcome.accepted);
  const auto result = fleetService.result(outcome.id);
  ASSERT_NE(result, nullptr);
  const auto order = log.snapshot();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0].first, "good");
}

// With two arrays to price, the cost policy would estimate a trace whose
// serving costs overflow; such a job is placed unpriced and fails as
// invalid, exactly as on a single array.
TEST(FleetService, CostPolicyDoesNotPriceATraceWhoseCostsOverflow) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("a=4x4;b=4x4");
  FleetService fleetService(std::move(config));

  JobRequest request = makeRequest();
  ReferenceTrace heavy(DataSpace::singleSquare(2));
  heavy.add(0, 0, 0, Cost{1} << 62);
  heavy.add(0, 1, 1);
  heavy.add(1, 2, 2);
  heavy.finalize();
  request.trace = std::move(heavy);
  const SubmitOutcome outcome = fleetService.submit(std::move(request));
  ASSERT_TRUE(outcome.accepted);
  (void)fleetService.result(outcome.id);
  const auto status = fleetService.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->errorKind, "invalid");
}

TEST(FleetService, TenantQuotaRejectsWithoutStarvingOtherTenants) {
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.tenantQueueDepth = 2;
  config.onJobAttempt = gate.hook();
  FleetService fleetService(std::move(config));

  // Occupy the single slot so subsequent submissions stay queued.
  JobRequest blocker = makeRequest();
  blocker.tenant = "other";
  ASSERT_TRUE(fleetService.submit(std::move(blocker)).accepted);

  for (int i = 0; i < 2; ++i) {
    JobRequest request = makeRequest(4, 6 + i + 1);
    request.tenant = "greedy";
    ASSERT_TRUE(fleetService.submit(std::move(request)).accepted);
  }
  JobRequest overQuota = makeRequest(4, 12);
  overQuota.tenant = "greedy";
  const SubmitOutcome rejected = fleetService.submit(std::move(overQuota));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.reason.find("tenant quota exceeded"),
            std::string::npos);
  EXPECT_NE(rejected.reason.find("greedy"), std::string::npos);

  // The quota is per tenant: another tenant keeps submitting.
  JobRequest fine = makeRequest(4, 12);
  fine.tenant = "polite";
  EXPECT_TRUE(fleetService.submit(std::move(fine)).accepted);

  gate.release();
  fleetService.drain();
}

TEST(FleetService, FleetWideQueueBoundStillApplies) {
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.maxQueueDepth = 2;
  config.tenantQueueDepth = 64;
  config.onJobAttempt = gate.hook();
  FleetService fleetService(std::move(config));

  ASSERT_TRUE(fleetService.submit(makeRequest()).accepted);  // runs
  ASSERT_TRUE(fleetService.submit(makeRequest(4, 7)).accepted);
  ASSERT_TRUE(fleetService.submit(makeRequest(4, 8)).accepted);
  const SubmitOutcome rejected = fleetService.submit(makeRequest(4, 9));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.reason.find("queue full"), std::string::npos);

  gate.release();
  fleetService.drain();
}

// ---------------------------------------------------------------------------
// Weighted fair shares and priority aging.
// ---------------------------------------------------------------------------

TEST(FleetFairness, StrideSchedulingHonoursFourToOneWeights) {
  DispatchLog log;
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.tenantWeights = {{"alpha", 4.0}, {"beta", 1.0}};
  config.tenantQueueDepth = 64;
  config.maxQueueDepth = 256;
  config.agingMs = 3'600'000;  // no aging interference at test timescales
  config.onDispatch = log.hook();
  config.onJobAttempt = gate.hook();
  FleetService fleetService(std::move(config));

  constexpr int kPerTenant = 10;
  for (int i = 0; i < kPerTenant; ++i) {
    for (const char* tenant : {"alpha", "beta"}) {
      JobRequest request = makeRequest(4, 4, Method::kScds);
      request.trace = makeTrace(4, 4 + i);  // distinct digests
      request.tenant = tenant;
      ASSERT_TRUE(fleetService.submit(std::move(request)).accepted);
    }
  }
  gate.release();
  fleetService.drain();

  // Walk the recorded dispatch order while both tenants still had
  // undispatched jobs; stride scheduling must split that contended
  // window close to the 4:1 weights.
  int alpha = 0, beta = 0;
  for (const auto& [array, tenant] : log.snapshot()) {
    if (tenant == "alpha") ++alpha;
    if (tenant == "beta") ++beta;
    if (alpha == kPerTenant || beta == kPerTenant) break;
  }
  ASSERT_GT(beta, 0);
  const double ratio = static_cast<double>(alpha) / beta;
  EXPECT_GE(ratio, 3.0) << "alpha=" << alpha << " beta=" << beta;
  EXPECT_LE(ratio, 5.0) << "alpha=" << alpha << " beta=" << beta;

  const FleetService::FleetStats stats = fleetService.fleetStats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].name, "alpha");
  EXPECT_EQ(stats.tenants[0].weight, 4.0);
  EXPECT_EQ(stats.tenants[0].dispatched, kPerTenant);
  EXPECT_GT(stats.tenants[0].contended, 0);
  EXPECT_EQ(stats.tenants[1].name, "beta");
  EXPECT_EQ(stats.tenants[1].dispatched, kPerTenant);
}

TEST(FleetFairness, AgingLiftsAStarvedLowPriorityJob) {
  DispatchLog log;
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.agingMs = 50;
  config.agingLimit = 8;
  config.onDispatch = log.hook();
  config.onJobAttempt = gate.hook();
  FleetService fleetService(std::move(config));

  // Blocker occupies the slot; the low-priority job queues and ages well
  // past the +8 cap while the high-priority flood arrives fresh (a fresh
  // job would need to wait 350ms to tie — far longer than any dispatch
  // decision takes after the gate opens).
  ASSERT_TRUE(fleetService.submit(makeRequest(4, 6, Method::kScds)).accepted);
  JobRequest starved = makeRequest(4, 7, Method::kScds);
  starved.tenant = "low";
  starved.priority = 0;
  ASSERT_TRUE(fleetService.submit(std::move(starved)).accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (int i = 0; i < 5; ++i) {
    JobRequest fresh = makeRequest(4, 8 + i, Method::kScds);
    fresh.tenant = "hi";
    fresh.priority = 1;
    ASSERT_TRUE(fleetService.submit(std::move(fresh)).accepted);
  }
  gate.release();
  fleetService.drain();

  const auto order = log.snapshot();
  ASSERT_EQ(order.size(), 7u);
  // The aged job (effective priority 0+8) outranks the fresh priority-1
  // flood and goes right after the blocker — not last.
  EXPECT_EQ(order[1].second, "low");
}

TEST(FleetFairness, WithoutAgingTheSameLowPriorityJobGoesLast) {
  DispatchLog log;
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.agingMs = 0;  // aging disabled: the starvation this PR prevents
  config.onDispatch = log.hook();
  config.onJobAttempt = gate.hook();
  FleetService fleetService(std::move(config));

  ASSERT_TRUE(fleetService.submit(makeRequest(4, 6, Method::kScds)).accepted);
  JobRequest starved = makeRequest(4, 7, Method::kScds);
  starved.tenant = "low";
  starved.priority = 0;
  ASSERT_TRUE(fleetService.submit(std::move(starved)).accepted);
  for (int i = 0; i < 5; ++i) {
    JobRequest fresh = makeRequest(4, 8 + i, Method::kScds);
    fresh.tenant = "hi";
    fresh.priority = 1;
    ASSERT_TRUE(fleetService.submit(std::move(fresh)).accepted);
  }
  gate.release();
  fleetService.drain();

  const auto order = log.snapshot();
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order.back().second, "low");
}

// ---------------------------------------------------------------------------
// Batch/serve mode switch.
// ---------------------------------------------------------------------------

TEST(FleetMode, BatchWaitsForTheServeBacklogToDrain) {
  DispatchLog log;
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.drainThreshold = 0;
  config.onDispatch = log.hook();
  config.onJobAttempt = gate.hook();
  FleetService fleetService(std::move(config));

  ASSERT_TRUE(fleetService.submit(makeRequest()).accepted);  // runs, gated
  JobRequest bulk = makeRequest(4, 7);
  bulk.tenant = "bulk";
  bulk.batch = true;
  bulk.priority = 100;  // priority must not let batch jump the serve queue
  ASSERT_TRUE(fleetService.submit(std::move(bulk)).accepted);
  for (int i = 0; i < 2; ++i) {
    JobRequest interactive = makeRequest(4, 8 + i);
    interactive.tenant = "ux";
    ASSERT_TRUE(fleetService.submit(std::move(interactive)).accepted);
  }
  gate.release();
  fleetService.drain();

  const auto order = log.snapshot();
  ASSERT_EQ(order.size(), 4u);
  // Despite its priority and earlier submission, the batch job dispatches
  // only after the serve backlog drained to the threshold.
  EXPECT_EQ(order.back().second, "bulk");

  const FleetService::FleetStats stats = fleetService.fleetStats();
  EXPECT_EQ(stats.serveDispatches, 3);
  EXPECT_EQ(stats.batchDispatches, 1);
  EXPECT_GE(stats.modeSwitches, 1);
  EXPECT_TRUE(stats.batchMode);  // the last dispatch flipped to batch mode
}

// ---------------------------------------------------------------------------
// Result cache keyed by digest | array fault signature.
// ---------------------------------------------------------------------------

TEST(FleetCache, ResubmitIsServedFromTheCache) {
  FleetService fleetService(healthySingleArray());
  const SubmitOutcome first = fleetService.submit(makeRequest());
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.cached);
  const auto firstResult = fleetService.result(first.id);
  ASSERT_NE(firstResult, nullptr);

  const SubmitOutcome second = fleetService.submit(makeRequest());
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.cached);
  const auto secondResult = fleetService.result(second.id);
  ASSERT_NE(secondResult, nullptr);
  EXPECT_TRUE(secondResult->cacheHit);
  EXPECT_EQ(secondResult->scheduleText, firstResult->scheduleText);
  EXPECT_EQ(fleetService.stats().cacheHits, 1);
}

TEST(FleetCache, TenantsNeverShareCacheEntries) {
  FleetService fleetService(healthySingleArray());
  JobRequest a = makeRequest();
  a.tenant = "a";
  JobRequest b = makeRequest();
  b.tenant = "b";
  const SubmitOutcome first = fleetService.submit(std::move(a));
  ASSERT_TRUE(first.accepted);
  ASSERT_NE(fleetService.result(first.id), nullptr);
  // Identical work, different tenant: a fresh run, not the cached answer.
  const SubmitOutcome second = fleetService.submit(std::move(b));
  ASSERT_TRUE(second.accepted);
  EXPECT_FALSE(second.cached);
  ASSERT_NE(fleetService.result(second.id), nullptr);
  EXPECT_EQ(fleetService.stats().cacheHits, 0);
}

TEST(FleetCache, FaultedArrayResultsAreKeyedByTheirSignature) {
  // Same job on a degraded single-array fleet: the second submit hits the
  // cache under the faulted signature (a healthy-fleet entry would be a
  // different key entirely).
  FleetService::Config config;
  config.arrays = parseFleetSpec("hurt=4x4:proc:5");
  FleetService fleetService(std::move(config));

  const SubmitOutcome first = fleetService.submit(makeRequest());
  ASSERT_TRUE(first.accepted);
  ASSERT_NE(fleetService.result(first.id), nullptr);
  const SubmitOutcome second = fleetService.submit(makeRequest());
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.cached);
}

TEST(FleetCache, DisabledCacheAlwaysRecomputes) {
  FleetService::Config config = healthySingleArray();
  config.maxCacheEntries = 0;
  FleetService fleetService(std::move(config));
  const SubmitOutcome first = fleetService.submit(makeRequest());
  ASSERT_TRUE(first.accepted);
  ASSERT_NE(fleetService.result(first.id), nullptr);
  const SubmitOutcome second = fleetService.submit(makeRequest());
  ASSERT_TRUE(second.accepted);
  EXPECT_FALSE(second.cached);
}

// ---------------------------------------------------------------------------
// Lifecycle, stats and the protocol surface.
// ---------------------------------------------------------------------------

TEST(FleetService, CancelHitsQueuedJobsOnly) {
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.onJobAttempt = gate.hook();
  FleetService fleetService(std::move(config));

  const SubmitOutcome running = fleetService.submit(makeRequest());
  ASSERT_TRUE(running.accepted);
  const SubmitOutcome queued = fleetService.submit(makeRequest(4, 7));
  ASSERT_TRUE(queued.accepted);

  EXPECT_TRUE(fleetService.cancel(queued.id));
  EXPECT_FALSE(fleetService.cancel(running.id));
  EXPECT_FALSE(fleetService.cancel(queued.id));  // already cancelled

  gate.release();
  fleetService.drain();
  const auto status = fleetService.status(queued.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kCancelled);
  EXPECT_EQ(fleetService.result(queued.id, /*wait=*/false), nullptr);
}

TEST(FleetService, DrainFinishesEverythingThenRejects) {
  FleetService fleetService(healthySingleArray());
  std::vector<serve::JobId> ids;
  for (int i = 0; i < 4; ++i) {
    const SubmitOutcome outcome = fleetService.submit(makeRequest(4, 5 + i));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  fleetService.drain();
  for (const serve::JobId id : ids) {
    const auto status = fleetService.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kDone);
  }
  EXPECT_FALSE(fleetService.submit(makeRequest()).accepted);
}

TEST(FleetService, StatsExtraEmitsTheFleetBreakdown) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("a=4x4;b=4x4:proc:5");
  FleetService fleetService(std::move(config));

  JobRequest request = makeRequest();
  request.tenant = "team1";
  const SubmitOutcome outcome = fleetService.submit(std::move(request));
  ASSERT_TRUE(outcome.accepted);
  ASSERT_NE(fleetService.result(outcome.id), nullptr);

  serve::Json reply = serve::Json(serve::Json::Object{});
  fleetService.statsExtra(reply);
  const serve::Json* fleetObj = reply.find("fleet");
  ASSERT_NE(fleetObj, nullptr);
  EXPECT_EQ(fleetObj->find("policy")->asString(), "cost");

  const auto& arrays = fleetObj->find("arrays")->asArray();
  ASSERT_EQ(arrays.size(), 2u);
  EXPECT_EQ(arrays[0].find("name")->asString(), "a");
  EXPECT_TRUE(arrays[0].find("healthy")->asBool());
  EXPECT_FALSE(arrays[1].find("healthy")->asBool());
  EXPECT_EQ(arrays[1].find("dead_procs")->asInt64(), 1);

  const auto& tenants = fleetObj->find("tenants")->asArray();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].find("name")->asString(), "team1");
  EXPECT_EQ(tenants[0].find("completed")->asInt64(), 1);
}

TEST(FleetService, UnknownIdsAreDistinguishable) {
  FleetService fleetService(healthySingleArray());
  EXPECT_FALSE(fleetService.status(999).has_value());
  EXPECT_EQ(fleetService.result(999, /*wait=*/false), nullptr);
  EXPECT_FALSE(fleetService.cancel(999));
}

// ---------------------------------------------------------------------------
// Live fault drift against the cache and the bit-identity invariant.
// ---------------------------------------------------------------------------

TEST(FleetCache, DriftInvalidatesEntriesNoLiveArrayCanServe) {
  FleetService fleetService(healthySingleArray());

  // Warm the cache with the healthy-mesh answer.
  const SubmitOutcome first = fleetService.submit(makeRequest());
  ASSERT_TRUE(first.accepted);
  const auto healthyResult = fleetService.result(first.id);
  ASSERT_NE(healthyResult, nullptr);
  ASSERT_TRUE(fleetService.submit(makeRequest()).cached);

  // Injecting a fault retires the healthy signature: the cached entry
  // must not answer for the now-degraded array.
  const serve::DriftOutcome drift =
      fleetService.applyDrift("only", {"proc:5"}, false);
  ASSERT_TRUE(drift.ok) << drift.error;
  EXPECT_GE(drift.cacheInvalidated, 1);

  const SubmitOutcome faulted = fleetService.submit(makeRequest());
  ASSERT_TRUE(faulted.accepted);
  EXPECT_FALSE(faulted.cached);
  const auto faultedResult = fleetService.result(faulted.id);
  ASSERT_NE(faultedResult, nullptr);
  // The recomputed answer is the fault-aware solve, not the stale one.
  const auto expected = serve::executeJobRequest(makeRequest(), {"proc:5"});
  EXPECT_EQ(faultedResult->scheduleText, expected->scheduleText);

  // Healing retires the faulted signature in turn.
  const serve::DriftOutcome heal = fleetService.applyDrift("only", {}, true);
  ASSERT_TRUE(heal.ok) << heal.error;
  EXPECT_GE(heal.cacheInvalidated, 1);
  EXPECT_EQ(fleetService.fleetStats().rebalance.cacheInvalidated,
            drift.cacheInvalidated + heal.cacheInvalidated);
}

TEST(FleetIdentity, InjectHealCycleRestoresBitIdenticalResults) {
  FleetService fleetService(healthySingleArray());
  FleetService plain(anyShape());

  ASSERT_TRUE(fleetService.applyDrift("only", {"proc:5"}, false).ok);
  ASSERT_TRUE(fleetService.applyDrift("only", {}, true).ok);

  // After a full inject/heal round trip the fleet is indistinguishable
  // from a service that never drifted.
  const SubmitOutcome viaFleet = fleetService.submit(makeRequest());
  const SubmitOutcome viaPlain = plain.submit(makeRequest());
  ASSERT_TRUE(viaFleet.accepted);
  ASSERT_TRUE(viaPlain.accepted);
  const auto fleetResult = fleetService.result(viaFleet.id);
  const auto plainResult = plain.result(viaPlain.id);
  ASSERT_NE(fleetResult, nullptr);
  ASSERT_NE(plainResult, nullptr);
  EXPECT_EQ(fleetResult->digest.hex(), plainResult->digest.hex());
  EXPECT_EQ(fleetResult->scheduleText, plainResult->scheduleText);
  EXPECT_EQ(fleetResult->eval.aggregate.total(),
            plainResult->eval.aggregate.total());
}

// ---------------------------------------------------------------------------
// In-flight coalescing on a multi-array fleet.
// ---------------------------------------------------------------------------

/// Two healthy arrays, one job at a time each: two distinct blockers fill
/// both slots, so everything submitted after them stays queued until the
/// gate opens.
FleetService::Config twoArrays(RunGate& gate) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("a=4x4;b=4x4");
  config.onJobAttempt = gate.hook();
  return config;
}

void fillBothArrays(FleetService& service) {
  ASSERT_TRUE(service.submit(makeRequest(4, 8)).accepted);
  ASSERT_TRUE(service.submit(makeRequest(4, 9)).accepted);
  ASSERT_EQ(service.stats().running, 2u);
}

TEST(FleetCoalescing, ConcurrentIdenticalSubmitsCoalesceToOneRun) {
  RunGate gate;
  FleetService service(twoArrays(gate));
#ifndef PIMSCHED_NO_OBS
  const std::int64_t coalescedBefore =
      obs::Registry::instance().counterValue("fleet.jobs.coalesced");
#endif
  fillBothArrays(service);
  const SubmitOutcome leader = service.submit(makeRequest());
  ASSERT_TRUE(leader.accepted);
  EXPECT_FALSE(leader.cached);
  constexpr int kFollowers = 3;
  std::vector<serve::JobId> followers;
  for (int i = 0; i < kFollowers; ++i) {
    const SubmitOutcome out = service.submit(makeRequest());
    ASSERT_TRUE(out.accepted);
    EXPECT_FALSE(out.cached);  // attached to the in-flight leader instead
    EXPECT_EQ(service.status(out.id)->state, JobState::kQueued);
    followers.push_back(out.id);
  }
  // Followers never entered a queue: only the leader waits.
  EXPECT_EQ(service.stats().queueDepth, 1u);
  gate.release();

  const auto leaderResult = service.result(leader.id);
  ASSERT_NE(leaderResult, nullptr);
  for (const serve::JobId id : followers) {
    const auto result = service.result(id);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result.get(), leaderResult.get());  // the same object, shared
    EXPECT_EQ(service.status(id)->state, JobState::kDone);
  }
  service.drain();
  EXPECT_EQ(gate.runs.load(), 3);  // two blockers + leader
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, kFollowers);
  EXPECT_EQ(stats.completed, 3 + kFollowers);
#ifndef PIMSCHED_NO_OBS
  EXPECT_EQ(obs::Registry::instance().counterValue("fleet.jobs.coalesced"),
            coalescedBefore + kFollowers);
#endif
}

TEST(FleetCoalescing, IdenticalSubmitStormRunsThePipelineOnce) {
  // Races submit against completion from real threads: every submit either
  // leads, coalesces, or hits the cache — the pipeline runs exactly once.
  std::atomic<int> runs{0};
  FleetService::Config config;
  config.arrays = parseFleetSpec("a=4x4;b=4x4;c=8x8");
  config.onJobAttempt = [&](int) { ++runs; };
  FleetService service(std::move(config));

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<Cost> totals(kThreads, -1);
  std::vector<std::thread> storm;
  storm.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const SubmitOutcome out = service.submit(makeRequest());
      ASSERT_TRUE(out.accepted);
      const auto result = service.result(out.id);
      ASSERT_NE(result, nullptr);
      totals[static_cast<std::size_t>(t)] = result->eval.aggregate.total();
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& s : storm) s.join();

  EXPECT_EQ(runs.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(totals[t], totals[0]);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kThreads);
  EXPECT_EQ(1 + stats.coalesced + stats.cacheHits, kThreads);
  EXPECT_EQ(stats.cacheMisses - stats.coalesced, 1);
}

TEST(FleetCoalescing, CancelledLeaderPromotesAFollower) {
  // Cancelling a queued leader must not strand its followers: the first
  // follower takes over its payload, is placed, and produces the result.
  RunGate gate;
  FleetService::Config config = twoArrays(gate);
  config.maxCacheEntries = 0;
  FleetService service(std::move(config));
  fillBothArrays(service);
  const SubmitOutcome leader = service.submit(makeRequest());
  const SubmitOutcome follower = service.submit(makeRequest());
  const SubmitOutcome second = service.submit(makeRequest());
  ASSERT_TRUE(leader.accepted);
  ASSERT_TRUE(follower.accepted);
  ASSERT_TRUE(second.accepted);

  EXPECT_TRUE(service.cancel(leader.id));
  EXPECT_EQ(service.status(leader.id)->state, JobState::kCancelled);
  EXPECT_EQ(service.status(follower.id)->state, JobState::kQueued);
  EXPECT_EQ(service.stats().queueDepth, 1u);  // the heir took its place
  gate.release();

  EXPECT_EQ(service.result(leader.id), nullptr);
  const auto result = service.result(follower.id);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->scheduleText,
            serve::executeJobRequest(makeRequest())->scheduleText);
  EXPECT_EQ(service.result(second.id).get(), result.get());
  EXPECT_EQ(service.status(follower.id)->state, JobState::kDone);
  service.drain();
  EXPECT_EQ(gate.runs.load(), 3);  // two blockers + the heir
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(FleetCoalescing, CancelDetachesAFollowerWithoutKillingTheLeader) {
  RunGate gate;
  FleetService::Config config = twoArrays(gate);
  config.maxCacheEntries = 0;
  FleetService service(std::move(config));
  fillBothArrays(service);
  const SubmitOutcome leader = service.submit(makeRequest());
  const SubmitOutcome follower = service.submit(makeRequest());
  ASSERT_TRUE(leader.accepted);
  ASSERT_TRUE(follower.accepted);

  EXPECT_TRUE(service.cancel(follower.id));
  EXPECT_EQ(service.status(follower.id)->state, JobState::kCancelled);
  EXPECT_EQ(service.status(leader.id)->state, JobState::kQueued);
  gate.release();

  EXPECT_EQ(service.result(follower.id), nullptr);
  ASSERT_NE(service.result(leader.id), nullptr);
  EXPECT_EQ(service.status(leader.id)->state, JobState::kDone);
}

TEST(FleetCoalescing, FollowersOfADriftedLeaderGetTheReconciledResult) {
  RunGate gate;
  FleetService::Config config = healthySingleArray();
  config.onJobAttempt = gate.hook();
  FleetService service(std::move(config));

  const SubmitOutcome leader = service.submit(makeRequest());
  ASSERT_TRUE(leader.accepted);
  waitUntilRunning(service, leader.id);
  const SubmitOutcome follower = service.submit(makeRequest());
  ASSERT_TRUE(follower.accepted);
  EXPECT_EQ(service.stats().coalesced, 1);
  // Kill the interior block under the running leader: the leader runs
  // again under the live faults, and the follower must see that answer.
  const std::vector<std::string> driftFaults = {"proc:5", "proc:6",
                                                "proc:9", "proc:10"};
  ASSERT_TRUE(service.applyDrift("only", driftFaults, false).ok);
  gate.release();

  const auto leaderResult = service.result(leader.id);
  ASSERT_NE(leaderResult, nullptr);
  const auto fresh = serve::executeJobRequest(makeRequest(), driftFaults);
  EXPECT_EQ(leaderResult->scheduleText, fresh->scheduleText);
  EXPECT_EQ(leaderResult->eval.aggregate.total(),
            fresh->eval.aggregate.total());
  const auto followerResult = service.result(follower.id);
  EXPECT_EQ(followerResult.get(), leaderResult.get());
  EXPECT_EQ(service.status(follower.id)->state, JobState::kDone);
  EXPECT_EQ(service.fleetStats().rebalance.staleServed, 0);
  EXPECT_EQ(gate.runs.load(), 1);  // the hook fires once per dispatch

  const SubmitOutcome again = service.submit(makeRequest());
  ASSERT_TRUE(again.accepted) << again.reason;
  EXPECT_TRUE(again.cached);
}

}  // namespace
}  // namespace pimsched::fleet
