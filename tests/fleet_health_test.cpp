#include "fleet/health.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_service.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "trace/trace.hpp"

namespace pimsched::fleet {
namespace {

using pimsched::Method;
using serve::JobRequest;
using serve::JobState;
using serve::SubmitOutcome;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;

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

JobRequest makeRequest(int n = 4, int steps = 6, int weightSeed = 1) {
  JobRequest request;
  request.trace = makeTrace(n, steps, weightSeed);
  request.gridRows = n;
  request.gridCols = n;
  request.config.numWindows = 3;
  request.method = Method::kGomcds;
  return request;
}

/// Spins until the job has been dispatched (it then parks on a RunGate).
void waitUntilRunning(const FleetService& service, serve::JobId id) {
  while (true) {
    const auto status = service.status(id);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::kRunning) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Canned facts for a 16-processor array.
ArrayFacts cleanFacts() { return ArrayFacts{16, 16, false, false}; }
ArrayFacts degradedFacts() { return ArrayFacts{15, 16, false, true}; }
ArrayFacts partitionedFacts() { return ArrayFacts{12, 16, true, true}; }

/// Holds every job run at its start until release() — deterministic queue
/// shaping without timing assumptions (same trick as fleet_service_test).
struct RunGate {
  std::promise<void> promise;
  std::shared_future<void> future{promise.get_future().share()};

  auto hook() {
    auto shared = future;
    return [shared](int) { shared.wait(); };
  }
  void release() { promise.set_value(); }
};

// ---------------------------------------------------------------------------
// HealthMonitor: state transitions under an explicit fake clock.
// ---------------------------------------------------------------------------

TEST(HealthMonitor, BootObservationClassifiesWithoutFlapPenalty) {
  HealthMonitor mon(2, HealthPolicy{});
  mon.observe(0, cleanFacts(), 0);
  mon.observe(1, degradedFacts(), 0);
  EXPECT_EQ(mon.state(0), HealthState::kHealthy);
  EXPECT_EQ(mon.state(1), HealthState::kDegraded);
  // A boot observation is not a drift event: no flap accounting, and both
  // healthy and degraded arrays are admissible immediately.
  EXPECT_EQ(mon.transitions(0), 0);
  EXPECT_TRUE(mon.admissible(0, 0));
  EXPECT_TRUE(mon.admissible(1, 0));
}

TEST(HealthMonitor, DriftDegradesAndHealRestores) {
  HealthMonitor mon(1, HealthPolicy{});
  mon.observe(0, cleanFacts(), 0);
  EXPECT_EQ(mon.onDrift(0, degradedFacts(), 1 * kMs), HealthState::kDegraded);
  EXPECT_TRUE(mon.admissible(0, 1 * kMs));  // degraded still serves
  EXPECT_EQ(mon.onDrift(0, cleanFacts(), 2 * kMs), HealthState::kHealthy);
  EXPECT_EQ(mon.transitions(0), 2);
}

TEST(HealthMonitor, SevereFactsQuarantineImmediately) {
  HealthMonitor mon(3, HealthPolicy{});
  mon.observe(0, cleanFacts(), 0);
  mon.observe(1, cleanFacts(), 0);
  mon.observe(2, cleanFacts(), 0);
  // Partitioned alive sub-mesh.
  EXPECT_EQ(mon.onDrift(0, partitionedFacts(), 0), HealthState::kQuarantined);
  // Alive fraction below the 0.5 threshold.
  EXPECT_EQ(mon.onDrift(1, ArrayFacts{7, 16, false, true}, 0),
            HealthState::kQuarantined);
  // Nothing alive at all.
  EXPECT_EQ(mon.onDrift(2, ArrayFacts{0, 16, false, true}, 0),
            HealthState::kQuarantined);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(mon.admissible(i, 0)) << "array " << i;
  }
}

TEST(HealthMonitor, FlappingDriftQuarantinesEvenWithMildFacts) {
  HealthMonitor mon(1, HealthPolicy{});  // flap limit: 4 drifts in 10s
  mon.observe(0, cleanFacts(), 0);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(mon.onDrift(0, degradedFacts(), i * kMs),
              HealthState::kDegraded)
        << "drift " << i;
  }
  // The fifth drift inside the window crosses the flap limit.
  EXPECT_EQ(mon.onDrift(0, degradedFacts(), 5 * kMs),
            HealthState::kQuarantined);
  EXPECT_FALSE(mon.admissible(0, 5 * kMs));
}

TEST(HealthMonitor, SlowDriftOutsideTheWindowNeverFlaps) {
  HealthMonitor mon(1, HealthPolicy{});  // flap window: 10s
  mon.observe(0, cleanFacts(), 0);
  // Drifts 11s apart: old events slide out of the window before the
  // count can cross the limit.
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(mon.onDrift(0, degradedFacts(), i * 11 * kSec),
              HealthState::kDegraded)
        << "drift " << i;
  }
}

TEST(HealthMonitor, FailureStreakQuarantinesAndSuccessResetsIt) {
  HealthMonitor mon(1, HealthPolicy{});  // failure threshold: 3
  mon.observe(0, cleanFacts(), 0);
  EXPECT_EQ(mon.onJobFailure(0, 1 * kMs), HealthState::kHealthy);
  EXPECT_EQ(mon.onJobFailure(0, 2 * kMs), HealthState::kHealthy);
  mon.onJobSuccess(0);  // streak broken
  EXPECT_EQ(mon.onJobFailure(0, 3 * kMs), HealthState::kHealthy);
  EXPECT_EQ(mon.onJobFailure(0, 4 * kMs), HealthState::kHealthy);
  EXPECT_EQ(mon.onJobFailure(0, 5 * kMs), HealthState::kQuarantined);
}

TEST(HealthMonitor, ReadmissionWaitsOutTheCooldown) {
  const HealthPolicy policy;  // cooldown 2s
  HealthMonitor mon(1, policy);
  mon.observe(0, cleanFacts(), 0);
  ASSERT_EQ(mon.onDrift(0, partitionedFacts(), 1 * kMs),
            HealthState::kQuarantined);

  // The facts improve, but re-admission is hysteretic: the state stays
  // quarantined and the cooldown restarts from this drift.
  EXPECT_EQ(mon.onDrift(0, degradedFacts(), 10 * kMs),
            HealthState::kQuarantined);
  EXPECT_FALSE(mon.admissible(0, 10 * kMs));
  EXPECT_FALSE(mon.admissible(0, 10 * kMs + policy.cooldownNs - 1));
  // Const reads never promote, no matter how much time has passed.
  EXPECT_EQ(mon.state(0), HealthState::kQuarantined);

  // Cooldown served quietly: admissible() re-admits at the severity the
  // facts deserve.
  EXPECT_TRUE(mon.admissible(0, 10 * kMs + policy.cooldownNs));
  EXPECT_EQ(mon.state(0), HealthState::kDegraded);
}

TEST(HealthMonitor, NeverReadmitsWhileFactsStillDeserveQuarantine) {
  HealthMonitor mon(1, HealthPolicy{});
  mon.observe(0, cleanFacts(), 0);
  ASSERT_EQ(mon.onDrift(0, partitionedFacts(), 0),
            HealthState::kQuarantined);
  // No amount of elapsed time re-admits an array that is still broken.
  EXPECT_FALSE(mon.admissible(0, 1000 * kSec));
  EXPECT_EQ(mon.state(0), HealthState::kQuarantined);
}

TEST(HealthMonitor, DriftWhileQuarantinedRestartsTheCooldown) {
  const HealthPolicy policy;  // cooldown 2s
  HealthMonitor mon(1, policy);
  mon.observe(0, cleanFacts(), 0);
  ASSERT_EQ(mon.onDrift(0, partitionedFacts(), 0),
            HealthState::kQuarantined);
  // Two improving drifts: each one is activity that restarts the clock.
  mon.onDrift(0, degradedFacts(), 1 * kSec);
  mon.onDrift(0, degradedFacts(), 2 * kSec);
  EXPECT_FALSE(mon.admissible(0, 2 * kSec + policy.cooldownNs - 1));
  EXPECT_TRUE(mon.admissible(0, 2 * kSec + policy.cooldownNs));
}

// ---------------------------------------------------------------------------
// FleetService drift reactions: queued-plan migration, the mid-run
// re-run under the live faults, and the rebalance-vs-requeue equivalence
// guarantee.
// ---------------------------------------------------------------------------

TEST(FleetDrift, QueuedPlansMigrateOffAQuarantinedArray) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("a=4x4;b=4x4");
  config.policy = FleetPolicy::kLeastLoaded;  // deterministic spreading
  config.concurrencyPerArray = 1;
  RunGate gate;
  config.onJobAttempt = gate.hook();
  FleetService service(config);

  // Fill both run slots with blockers, then queue distinct jobs whose
  // plans spread over the two arrays.
  std::vector<serve::JobId> ids;
  for (int seed = 1; seed <= 8; ++seed) {
    const SubmitOutcome out = service.submit(makeRequest(4, 5 + seed));
    ASSERT_TRUE(out.accepted) << out.reason;
    ids.push_back(out.id);
  }
  std::size_t plannedOnB = 0;
  for (const auto& row : service.fleetStats().arrays) {
    if (row.name == "b") plannedOnB = row.planned;
  }
  ASSERT_GT(plannedOnB, 0u);

  // Partitioning b quarantines it; every queued plan migrates to a.
  const serve::DriftOutcome drift = service.applyDrift("b", {"row:1"}, false);
  ASSERT_TRUE(drift.ok) << drift.error;
  EXPECT_EQ(drift.health, "quarantined");
  EXPECT_EQ(drift.requeued, static_cast<std::int64_t>(plannedOnB));
  for (const auto& row : service.fleetStats().arrays) {
    if (row.name == "b") {
      EXPECT_EQ(row.planned, 0u);
      EXPECT_EQ(row.health, "quarantined");
      EXPECT_EQ(row.driftEpoch, 1);
    }
  }
  EXPECT_EQ(service.fleetStats().rebalance.requeued, drift.requeued);

  gate.release();

  // Rebalance-vs-requeue equivalence: every job — migrated plans and the
  // drift-broken blocker that was running on b alike — completes on the
  // healthy array with a result bit-identical to a fresh solve there.
  for (int seed = 1; seed <= 8; ++seed) {
    const auto result = service.result(ids[static_cast<std::size_t>(seed - 1)]);
    ASSERT_NE(result, nullptr) << "job with seed " << seed;
    const auto fresh = serve::executeJobRequest(makeRequest(4, 5 + seed));
    EXPECT_EQ(result->scheduleText, fresh->scheduleText);
    EXPECT_EQ(result->eval.aggregate.serve, fresh->eval.aggregate.serve);
    EXPECT_EQ(result->eval.aggregate.move, fresh->eval.aggregate.move);
  }
  EXPECT_EQ(service.fleetStats().rebalance.staleServed, 0);
}

// Mid-run drift has one reaction, whatever the drift broke: the job runs
// again under the array's live faults. (The name predates that rule and is
// kept so the test's history stays continuous.)
TEST(FleetDrift, MidRunDriftIsRepairedInPreferenceToAResolve) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  RunGate gate;
  config.onJobAttempt = gate.hook();
  FleetService service(config);

  const SubmitOutcome out = service.submit(makeRequest());
  ASSERT_TRUE(out.accepted) << out.reason;
  // Drift the array under the parked run: kill the interior block, on
  // which the healthy-mesh schedule places data — degraded, not
  // partitioned.
  waitUntilRunning(service, out.id);
  const std::vector<std::string> driftFaults = {"proc:5", "proc:6",
                                                "proc:9", "proc:10"};
  const serve::DriftOutcome drift =
      service.applyDrift("only", driftFaults, false);
  ASSERT_TRUE(drift.ok) << drift.error;
  EXPECT_EQ(drift.health, "degraded");
  EXPECT_EQ(drift.requeued, 0);

  gate.release();
  const auto result = service.result(out.id);
  ASSERT_NE(result, nullptr);
  const auto fresh = serve::executeJobRequest(makeRequest(), driftFaults);
  EXPECT_EQ(result->scheduleText, fresh->scheduleText);
  EXPECT_EQ(result->eval.aggregate.serve, fresh->eval.aggregate.serve);
  EXPECT_EQ(result->eval.aggregate.move, fresh->eval.aggregate.move);
  const FleetService::FleetStats stats = service.fleetStats();
  EXPECT_EQ(stats.rebalance.resolved, 1);
  EXPECT_EQ(stats.rebalance.staleServed, 0);
  const auto status = service.status(out.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(status->attempts, 1);

  // The re-run is what a fresh submit computes now, so it was cached.
  const SubmitOutcome again = service.submit(makeRequest());
  ASSERT_TRUE(again.accepted) << again.reason;
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(service.result(again.id)->scheduleText, fresh->scheduleText);
}

TEST(FleetDrift, MidRunDriftResultIsBitIdenticalToAFreshSubmit) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  RunGate gate;
  config.onJobAttempt = gate.hook();
  FleetService service(config);
  serve::ProtocolHandler handler(service);

  const JobRequest request = makeRequest();
  const SubmitOutcome out = service.submit(request);
  ASSERT_TRUE(out.accepted) << out.reason;
  waitUntilRunning(service, out.id);
  ASSERT_TRUE(service.applyDrift("only", {"proc:5"}, false).ok);
  gate.release();

  const auto result = service.result(out.id);
  ASSERT_NE(result, nullptr);
  const auto fresh = serve::executeJobRequest(request, {"proc:5"});
  EXPECT_EQ(result->scheduleText, fresh->scheduleText);
  EXPECT_EQ(result->eval.aggregate.serve, fresh->eval.aggregate.serve);
  EXPECT_EQ(result->eval.aggregate.move, fresh->eval.aggregate.move);
  EXPECT_EQ(result->digest.hex(), serve::jobDigest(request).hex());

  // The stats verb reports the re-run; no other drift reaction exists.
  const serve::Json reply =
      serve::Json::parse(handler.handleLine(R"({"verb":"stats"})"));
  const serve::Json* fleetObj = reply.find("fleet");
  ASSERT_NE(fleetObj, nullptr);
  const serve::Json* rebalance = fleetObj->find("rebalance");
  ASSERT_NE(rebalance, nullptr);
  EXPECT_EQ(rebalance->find("resolved")->asInt64(), 1);
  EXPECT_EQ(rebalance->find("stale_served")->asInt64(), 0);
  EXPECT_EQ(rebalance->find("kept"), nullptr);
  EXPECT_EQ(rebalance->find("repaired"), nullptr);
}

TEST(FleetDrift, MidRunPartitionOfTheOnlyArrayFailsUnreachable) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  RunGate gate;
  config.onJobAttempt = gate.hook();
  FleetService service(config);

  const SubmitOutcome out = service.submit(makeRequest());
  ASSERT_TRUE(out.accepted) << out.reason;
  waitUntilRunning(service, out.id);
  // row:1 severs row 0 from rows 2-3 of the 4x4 mesh while the trace
  // references every processor — no alive center reaches them all, and
  // there is no other array to move to. The healthy-mesh run must not be
  // served.
  ASSERT_TRUE(service.applyDrift("only", {"row:1"}, false).ok);
  gate.release();

  EXPECT_EQ(service.result(out.id), nullptr);
  const auto status = service.status(out.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->errorKind, "unreachable");
  // Nowhere else to go: the job fails on its first dispatch instead of
  // being requeued onto the same unchanged array.
  EXPECT_EQ(status->attempts, 1);
  const FleetService::FleetStats stats = service.fleetStats();
  EXPECT_GE(stats.rebalance.resolved, 1);
  EXPECT_EQ(stats.rebalance.staleServed, 0);
  EXPECT_EQ(service.stats().completed, 0);
}

TEST(FleetDrift, FailureUnderAHealedFaultStateReruns) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  RunGate gate;
  config.onJobAttempt = gate.hook();
  FleetService service(config);

  // The job is dispatched onto a partitioned array, where it cannot be
  // scheduled; the heal lands while it runs. Its failure answers a fault
  // state the array no longer has, so the job runs again on the healed
  // mesh instead of failing there.
  ASSERT_TRUE(service.applyDrift("only", {"row:1"}, false).ok);
  const SubmitOutcome out = service.submit(makeRequest());
  ASSERT_TRUE(out.accepted) << out.reason;
  waitUntilRunning(service, out.id);
  ASSERT_TRUE(service.applyDrift("only", {}, true).ok);
  gate.release();

  const auto result = service.result(out.id);
  ASSERT_NE(result, nullptr);
  const auto fresh = serve::executeJobRequest(makeRequest());
  EXPECT_EQ(result->scheduleText, fresh->scheduleText);
  EXPECT_EQ(result->eval.aggregate.total(), fresh->eval.aggregate.total());
  const auto status = service.status(out.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  const FleetService::FleetStats stats = service.fleetStats();
  EXPECT_EQ(stats.arrays[0].failed, 0);
  EXPECT_EQ(stats.rebalance.resolved, 1);
  EXPECT_EQ(stats.rebalance.staleServed, 0);
}

TEST(FleetDrift, AnInvalidRequestFailsAtOnceWhateverTheDrift) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  RunGate gate;
  config.onJobAttempt = gate.hook();
  FleetService service(config);

  // Serving costs that overflow make the request invalid on any mesh, so
  // the drift under its run neither re-runs nor requeues it.
  JobRequest request = makeRequest();
  ReferenceTrace heavy(DataSpace::singleSquare(2));
  heavy.add(0, 0, 0, Cost{1} << 62);
  heavy.add(0, 1, 1);
  heavy.add(1, 2, 2);
  heavy.finalize();
  request.trace = std::move(heavy);
  const SubmitOutcome out = service.submit(std::move(request));
  ASSERT_TRUE(out.accepted) << out.reason;
  waitUntilRunning(service, out.id);
  ASSERT_TRUE(service.applyDrift("only", {"proc:5"}, false).ok);
  gate.release();

  EXPECT_EQ(service.result(out.id), nullptr);
  const auto status = service.status(out.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->errorKind, "invalid");
  EXPECT_EQ(status->attempts, 1);
  EXPECT_EQ(service.fleetStats().rebalance.resolved, 0);
}

TEST(FleetDrift, NoOpDriftBumpsNothing) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  FleetService service(config);

  // Healing a healthy array changes nothing.
  serve::DriftOutcome out = service.applyDrift("only", {}, true);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.requeued, 0);
  EXPECT_EQ(out.cacheInvalidated, 0);
  EXPECT_EQ(service.fleetStats().arrays[0].driftEpoch, 0);

  // A real inject bumps the epoch once...
  out = service.applyDrift("only", {"proc:5"}, false);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(service.fleetStats().arrays[0].driftEpoch, 1);
  EXPECT_EQ(out.health, "degraded");
  // ...and an all-duplicate inject is a no-op probe.
  out = service.applyDrift("only", {"proc:5"}, false);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(service.fleetStats().arrays[0].driftEpoch, 1);

  // Structured errors for unknown arrays and unparsable specs.
  out = service.applyDrift("ghost", {"proc:0"}, false);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("ghost"), std::string::npos);
  out = service.applyDrift("only", {"banana:1"}, false);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("banana"), std::string::npos);
  EXPECT_NE(out.error.find("offset"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The fault-inject / heal protocol verbs against a real fleet.
// ---------------------------------------------------------------------------

TEST(FleetDriftProtocol, InjectAndHealRoundTripOverTheWire) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("a=4x4;b=4x4");
  FleetService service(config);
  serve::ProtocolHandler handler(service);

  const auto call = [&](const std::string& line) {
    const serve::Json reply = serve::Json::parse(handler.handleLine(line));
    EXPECT_TRUE(reply.isObject());
    return reply;
  };

  serve::Json inject;
  inject.set("verb", "fault-inject")
      .set("array", "b")
      .set("faults", serve::Json(serve::Json::Array{serve::Json("proc:5")}));
  serve::Json reply = call(inject.dump());
  ASSERT_TRUE(reply.find("ok")->asBool()) << reply.dump();
  EXPECT_EQ(reply.find("array")->asString(), "b");
  EXPECT_EQ(reply.find("health")->asString(), "degraded");
  EXPECT_EQ(reply.find("dead_procs")->asInt64(), 1);
  EXPECT_FALSE(reply.find("fault_signature")->asString().empty());

  // The stats verb surfaces the drift in the fleet breakdown.
  serve::Json statsRequest;
  statsRequest.set("verb", "stats");
  reply = call(statsRequest.dump());
  const serve::Json* fleetObj = reply.find("fleet");
  ASSERT_NE(fleetObj, nullptr);
  const serve::Json* rebalance = fleetObj->find("rebalance");
  ASSERT_NE(rebalance, nullptr);
  EXPECT_EQ(rebalance->find("drift_events")->asInt64(), 1);
  EXPECT_EQ(rebalance->find("stale_served")->asInt64(), 0);

  // A bad spec is a structured invalid-request error naming the token.
  serve::Json bad;
  bad.set("verb", "fault-inject")
      .set("array", "b")
      .set("faults",
           serve::Json(serve::Json::Array{serve::Json("region:0,0,x,3")}));
  reply = call(bad.dump());
  EXPECT_FALSE(reply.find("ok")->asBool());
  EXPECT_EQ(reply.find("error_kind")->asString(), "invalid");
  EXPECT_NE(reply.find("error")->asString().find("\"x\""),
            std::string::npos);
  EXPECT_NE(reply.find("error")->asString().find("offset"),
            std::string::npos);

  serve::Json healRequest;
  healRequest.set("verb", "heal").set("array", "b");
  reply = call(healRequest.dump());
  ASSERT_TRUE(reply.find("ok")->asBool()) << reply.dump();
  EXPECT_EQ(reply.find("health")->asString(), "healthy");
  EXPECT_EQ(reply.find("dead_procs")->asInt64(), 0);
  EXPECT_TRUE(reply.find("fault_signature")->asString().empty());
}

}  // namespace
}  // namespace pimsched::fleet
