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
#include "fleet/rebalance.hpp"
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

TEST(HealthMonitor, PartitionQuarantineIsPolicyControlled) {
  HealthPolicy policy;
  policy.quarantinePartitioned = false;
  HealthMonitor mon(1, policy);
  mon.observe(0, cleanFacts(), 0);
  // With the knob off a partitioned-but-mostly-alive array only degrades.
  EXPECT_EQ(mon.onDrift(0, partitionedFacts(), 0), HealthState::kDegraded);
}

TEST(HealthMonitor, FlappingDriftQuarantinesEvenWithMildFacts) {
  HealthMonitor mon(1, HealthPolicy{});  // flapLimit 4 in 10s
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
  HealthMonitor mon(1, HealthPolicy{});  // flapWindow 10s
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
  HealthMonitor mon(1, HealthPolicy{});  // failureThreshold 3
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
// Rebalancer: keep / repair / resolve preference order, and the resolve
// bit-identity guarantee.
// ---------------------------------------------------------------------------

TEST(Rebalancer, KeepsAScheduleTheDriftDidNotBreak) {
  const JobRequest request = makeRequest();
  // Solved healthy; the drift then capped proc 5 at 16 slots — far above
  // anything the schedule actually stores there, and no processor or
  // link died. The schedule still verifies, so only the costs are
  // recomputed.
  auto stale = serve::executeJobRequest(request, {});
  stale->digest = serve::jobDigest(request);

  const ReconcileOutcome out =
      Rebalancer::reconcile(request, *stale, {"cap:5=16"});
  EXPECT_EQ(out.action, ReconcileOutcome::Action::kKept);
  ASSERT_NE(out.result, nullptr);
  EXPECT_EQ(out.result->scheduleText, stale->scheduleText);
  EXPECT_FALSE(out.result->repaired);
  EXPECT_EQ(out.cellsRepaired, 0);
  EXPECT_EQ(out.result->digest.hex(), stale->digest.hex());
  // No dead processors or links: the kept schedule's costs are exactly
  // what they were.
  EXPECT_EQ(out.result->eval.aggregate.total(),
            stale->eval.aggregate.total());
}

TEST(Rebalancer, RepairsBrokenPlacementsInsteadOfResolving) {
  const JobRequest request = makeRequest();
  // Solved on a healthy mesh; the interior 2x2 block then died. Some
  // placements sit on the dead block, so keep fails but repair
  // re-centers exactly those cells.
  auto stale = serve::executeJobRequest(request, {});
  stale->digest = serve::jobDigest(request);

  const std::vector<std::string> drift = {"proc:5", "proc:6", "proc:9",
                                          "proc:10"};
  const ReconcileOutcome out = Rebalancer::reconcile(request, *stale, drift);
  EXPECT_EQ(out.action, ReconcileOutcome::Action::kRepaired);
  ASSERT_NE(out.result, nullptr);
  EXPECT_TRUE(out.result->repaired);
  EXPECT_GT(out.cellsRepaired, 0);
  EXPECT_NE(out.result->scheduleText, stale->scheduleText);
  EXPECT_EQ(out.result->digest.hex(), stale->digest.hex());
}

TEST(Rebalancer, ResolvesUnusableResultsBitIdenticalToAFreshSubmit) {
  const JobRequest request = makeRequest();
  serve::JobResult garbage;
  garbage.scheduleText = "not a schedule";
  garbage.digest = serve::jobDigest(request);

  const std::vector<std::string> drift = {"proc:5"};
  const ReconcileOutcome out =
      Rebalancer::reconcile(request, garbage, drift);
  EXPECT_EQ(out.action, ReconcileOutcome::Action::kResolved);
  ASSERT_NE(out.result, nullptr);

  // The whole point of resolve: the answer is exactly what a fresh
  // submit against the new fault state would produce, so it is safe to
  // cache under the digest|signature key.
  const auto fresh = serve::executeJobRequest(request, drift);
  EXPECT_EQ(out.result->scheduleText, fresh->scheduleText);
  EXPECT_EQ(out.result->eval.aggregate.serve, fresh->eval.aggregate.serve);
  EXPECT_EQ(out.result->eval.aggregate.move, fresh->eval.aggregate.move);
  EXPECT_FALSE(out.result->repaired);
  EXPECT_EQ(out.result->digest.hex(), garbage.digest.hex());
}

TEST(Rebalancer, PropagatesWhenEvenTheResolveIsInfeasible) {
  const JobRequest request = makeRequest();
  serve::JobResult garbage;
  garbage.scheduleText = "not a schedule";
  // row:1 severs row 0 from rows 2-3 of the 4x4 mesh while the trace
  // references every processor — no alive center reaches them all.
  EXPECT_THROW((void)Rebalancer::reconcile(request, garbage, {"row:1"}),
               std::exception);
}

// ---------------------------------------------------------------------------
// FleetService drift reactions: queued-plan migration, mid-run repair
// accounting, and the rebalance-vs-requeue equivalence guarantee.
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

TEST(FleetDrift, MidRunDriftIsRepairedInPreferenceToAResolve) {
  FleetService::Config config;
  config.arrays = parseFleetSpec("only=4x4");
  RunGate gate;
  config.onJobAttempt = gate.hook();
  FleetService service(config);

  const SubmitOutcome out = service.submit(makeRequest());
  ASSERT_TRUE(out.accepted) << out.reason;
  // Wait for the run to start (it parks on the gate), then drift the
  // array under it: kill the interior block — degraded, not partitioned.
  while (true) {
    const auto status = service.status(out.id);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const serve::DriftOutcome drift = service.applyDrift(
      "only", {"proc:5", "proc:6", "proc:9", "proc:10"}, false);
  ASSERT_TRUE(drift.ok) << drift.error;
  EXPECT_EQ(drift.health, "degraded");
  EXPECT_EQ(drift.requeued, 0);

  gate.release();
  const auto result = service.result(out.id);
  ASSERT_NE(result, nullptr);
  // The healthy-mesh schedule placed data on the dead block, so the
  // reconcile repaired it in place rather than re-solving from scratch.
  EXPECT_TRUE(result->repaired);
  const FleetService::FleetStats stats = service.fleetStats();
  EXPECT_EQ(stats.rebalance.repaired, 1);
  EXPECT_EQ(stats.rebalance.resolved, 0);
  EXPECT_EQ(stats.rebalance.kept, 0);
  EXPECT_EQ(stats.rebalance.staleServed, 0);
  const auto status = service.status(out.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
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
