#include "serve/stream.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "fleet/fleet_service.hpp"
#include "serve/service.hpp"

namespace pimsched::serve {
namespace {

/// The daemon's default engine, the one-shot submit path windows are
/// compared against.
using OneShot = fleet::FleetService;

/// One streaming window: the shared prefix plus a per-window tail step, so
/// consecutive windows of a session share everything but the suffix.
ReferenceTrace windowTrace(int n, int steps, int tailWeight) {
  ReferenceTrace trace(DataSpace::singleSquare(n));
  const int numData = n * n;
  for (int s = 0; s < steps; ++s) {
    for (int d = 0; d < numData; ++d) {
      const int weight =
          s + 1 == steps ? tailWeight + d % 3 : 1 + (d + s) % 3;
      trace.add(s, (d + s) % 16, d, weight);
    }
  }
  trace.finalize();
  return trace;
}

StreamRequest makeStreamRequest(const std::string& session,
                                int tailWeight = 1) {
  StreamRequest request;
  request.session = session;
  request.job.trace = windowTrace(4, 6, tailWeight);
  request.job.config.numWindows = 3;
  request.job.config.capacity = PipelineConfig::kUnlimited;
  request.job.method = Method::kGomcds;
  return request;
}

/// One window through the session store alone, on a healthy array.
StreamOutcome step(StreamSessionManager& manager,
                   const StreamRequest& request) {
  return manager.step(request.session, request.job);
}

/// The classified failure of a window the session store refuses.
JobError stepError(StreamSessionManager& manager,
                   const StreamRequest& request) {
  try {
    (void)step(manager, request);
  } catch (...) {
    return classifyJobError(std::current_exception());
  }
  ADD_FAILURE() << "window " << request.session << " was not refused";
  return {};
}

/// Holds the first job run on a gate until released, keeping its array
/// busy so later work queues behind it.
struct RunGate {
  std::promise<void> release;
  std::shared_future<void> open = release.get_future().share();
  std::atomic<int> runs{0};

  std::function<void(int)> hook() {
    return [this](int) {
      if (runs.fetch_add(1) == 0) open.wait();
    };
  }
};

// ---------------------------------------------------------------------------
// Session basics: warm second window, identity with the one-shot path.
// ---------------------------------------------------------------------------

TEST(StreamSessionManagerTest, SecondWindowOfUnchangedTraceIsWarm) {
  StreamSessionManager manager;
  const StreamOutcome first = step(manager, makeStreamRequest("s"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.window, 0);
  EXPECT_TRUE(first.reset);  // newly created session
  EXPECT_FALSE(first.incremental);

  const StreamOutcome second = step(manager, makeStreamRequest("s"));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.window, 1);
  EXPECT_FALSE(second.reset);
  EXPECT_TRUE(second.incremental);
  EXPECT_GT(second.reusedLayers, 0);
  EXPECT_EQ(second.relaxedLayers, 0);
}

TEST(StreamSessionManagerTest, EveryWindowMatchesTheOneShotSubmitPath) {
  StreamSessionManager manager;
  OneShot oneShot{OneShot::Config{}};
  for (int tail = 1; tail <= 4; ++tail) {
    const StreamOutcome window =
        step(manager, makeStreamRequest("s", tail));
    ASSERT_TRUE(window.ok) << window.error;
    ASSERT_NE(window.result, nullptr);

    StreamRequest fresh = makeStreamRequest("s", tail);
    const SubmitOutcome submitted = oneShot.submit(fresh.job);
    ASSERT_TRUE(submitted.accepted) << submitted.reason;
    const auto expected = oneShot.result(submitted.id);
    ASSERT_NE(expected, nullptr);

    EXPECT_EQ(window.result->scheduleText, expected->scheduleText)
        << "tail " << tail;
    EXPECT_EQ(window.result->eval.aggregate.total(),
              expected->eval.aggregate.total());
  }
}

TEST(StreamSessionManagerTest, FaultedWindowsMatchTheOneShotSubmitPath) {
  StreamSessionManager manager;
  OneShot oneShot{OneShot::Config{}};
  for (int tail = 1; tail <= 3; ++tail) {
    StreamRequest request = makeStreamRequest("faulted", tail);
    request.job.faults = {"proc:5", "link:2-3"};
    const StreamOutcome window = step(manager, request);
    ASSERT_TRUE(window.ok) << window.error;
    ASSERT_NE(window.result, nullptr);

    const SubmitOutcome submitted = oneShot.submit(request.job);
    ASSERT_TRUE(submitted.accepted) << submitted.reason;
    const auto expected = oneShot.result(submitted.id);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(window.result->scheduleText, expected->scheduleText)
        << "tail " << tail;
  }
}

TEST(StreamSessionManagerTest, RedundantFaultSpecsAreAcceptedLikeSubmit) {
  // A spec that changes nothing (a repeat, a processor inside an already
  // dead row) is a no-op on the one-shot path; a session accepts it too
  // and answers the same schedule.
  const std::vector<std::vector<std::string>> cases = {
      {"proc:5", "proc:5"}, {"row:0", "proc:1"}};
  StreamSessionManager manager;
  OneShot oneShot{OneShot::Config{}};
  for (const std::vector<std::string>& faults : cases) {
    StreamRequest request = makeStreamRequest("redundant");
    request.job.faults = faults;
    const StreamOutcome window = step(manager, request);
    ASSERT_TRUE(window.ok) << faults.front() << ": " << window.error;
    ASSERT_NE(window.result, nullptr);

    const SubmitOutcome submitted = oneShot.submit(request.job);
    ASSERT_TRUE(submitted.accepted) << submitted.reason;
    const auto expected = oneShot.result(submitted.id);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(window.result->scheduleText, expected->scheduleText)
        << faults.front();
    EXPECT_EQ(window.result->eval.aggregate.total(),
              expected->eval.aggregate.total());
  }

  // Row 1 cuts this trace's referencing processors apart: the redundant
  // proc:5 must not turn that into a spec error, both paths refuse the
  // job as unreachable.
  StreamRequest cut = makeStreamRequest("cut");
  cut.job.faults = {"row:1", "proc:5"};
  const JobError error = stepError(manager, cut);
  EXPECT_EQ(error.kind, "unreachable") << error.message;
  const SubmitOutcome submitted = oneShot.submit(cut.job);
  ASSERT_TRUE(submitted.accepted) << submitted.reason;
  EXPECT_EQ(oneShot.result(submitted.id), nullptr);
  const std::optional<JobStatus> status = oneShot.status(submitted.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->errorKind, error.kind);
}

TEST(StreamSessionManagerTest, DeadCenterOfAFaultObliviousMethodIsUnreachable) {
  // Row-wise places datum 5 on processor 5 whatever the faults: with
  // processor 5 dead, a window must be refused exactly as a submit is.
  StreamRequest request = makeStreamRequest("rowwise");
  request.job.method = Method::kRowWise;
  request.job.faults = {"proc:5"};
  StreamSessionManager manager;
  const JobError error = stepError(manager, request);
  EXPECT_EQ(error.kind, "unreachable") << error.message;

  OneShot oneShot{OneShot::Config{}};
  const SubmitOutcome submitted = oneShot.submit(request.job);
  ASSERT_TRUE(submitted.accepted) << submitted.reason;
  EXPECT_EQ(oneShot.result(submitted.id), nullptr);
  const std::optional<JobStatus> status = oneShot.status(submitted.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->errorKind, error.kind);
  EXPECT_EQ(status->error, error.message);
}

TEST(StreamSessionManagerTest, InvalidSessionNamesAreRejected) {
  StreamSessionManager manager;
  const std::vector<std::string> badNames = {"", "has space", "semi;colon",
                                             std::string(65, 'a')};
  for (const std::string& bad : badNames) {
    EXPECT_EQ(stepError(manager, makeStreamRequest(bad)).kind, "invalid")
        << "name '" << bad << "'";
  }
  EXPECT_EQ(manager.size(), 0u);
}

TEST(StreamSessionManagerTest, CloseDropsTheSession) {
  StreamSessionManager manager;
  ASSERT_TRUE(step(manager, makeStreamRequest("s")).ok);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_TRUE(manager.close("s"));
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_FALSE(manager.close("s"));  // already gone
  // A new window after close starts a fresh session at window 0.
  const StreamOutcome reopened = step(manager, makeStreamRequest("s"));
  ASSERT_TRUE(reopened.ok);
  EXPECT_EQ(reopened.window, 0);
  EXPECT_TRUE(reopened.reset);
}

// ---------------------------------------------------------------------------
// Eviction and compatibility resets.
// ---------------------------------------------------------------------------

TEST(StreamSessionManagerTest, LruEvictionDropsTheColdestSession) {
  StreamSessionManager manager(/*maxSessions=*/2);
  ASSERT_TRUE(step(manager, makeStreamRequest("a")).ok);
  ASSERT_TRUE(step(manager, makeStreamRequest("b")).ok);
  ASSERT_TRUE(step(manager, makeStreamRequest("a")).ok);  // touch a
  ASSERT_TRUE(step(manager, makeStreamRequest("c")).ok);  // evicts b
  EXPECT_EQ(manager.size(), 2u);

  // a kept its state across the eviction of b; re-adding b afterwards
  // restarts it from scratch (and evicts the new LRU victim, c).
  const StreamOutcome a = step(manager, makeStreamRequest("a"));
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.window, 2);
  EXPECT_FALSE(a.reset);
  const StreamOutcome b = step(manager, makeStreamRequest("b"));
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.window, 0);
  EXPECT_TRUE(b.reset);
}

TEST(StreamSessionManagerTest, ConfigChangeResetsTheSessionInPlace) {
  StreamSessionManager manager;
  ASSERT_TRUE(step(manager, makeStreamRequest("s")).ok);
  ASSERT_TRUE(step(manager, makeStreamRequest("s")).ok);

  StreamRequest changed = makeStreamRequest("s");
  changed.job.config.numWindows = 5;  // different solve shape
  const StreamOutcome out = step(manager, changed);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.reset);
  EXPECT_EQ(out.window, 0);
  EXPECT_FALSE(out.incremental);  // warm state was dropped

  // And the reset session matches a fresh one-shot solve of the new shape.
  OneShot oneShot{OneShot::Config{}};
  StreamRequest fresh = makeStreamRequest("s");
  fresh.job.config.numWindows = 5;
  const SubmitOutcome submitted = oneShot.submit(fresh.job);
  ASSERT_TRUE(submitted.accepted);
  const auto expected = oneShot.result(submitted.id);
  ASSERT_NE(expected, nullptr);
  ASSERT_NE(out.result, nullptr);
  EXPECT_EQ(out.result->scheduleText, expected->scheduleText);
}

TEST(StreamSessionManagerTest, ArrayFaultChangeRebuildsTheSession) {
  StreamSessionManager manager;
  const StreamRequest request = makeStreamRequest("s");
  ASSERT_TRUE(step(manager, request).ok);
  const StreamOutcome same = step(manager, request);
  ASSERT_TRUE(same.ok);
  EXPECT_FALSE(same.reset);
  EXPECT_EQ(same.window, 1);

  // New array faults (a drift on the hosting array) rebuild the session
  // cold under them, and it answers as the one-shot pipeline does there.
  const std::vector<std::string> drifted = {"proc:5"};
  const StreamOutcome rebuilt = manager.step("s", request.job, drifted);
  ASSERT_TRUE(rebuilt.ok);
  EXPECT_TRUE(rebuilt.reset);
  EXPECT_EQ(rebuilt.window, 0);
  EXPECT_FALSE(rebuilt.incremental);
  ASSERT_NE(rebuilt.result, nullptr);
  EXPECT_EQ(rebuilt.result->scheduleText,
            executeJobRequest(request.job, drifted)->scheduleText);

  const StreamOutcome warm = manager.step("s", request.job, drifted);
  ASSERT_TRUE(warm.ok);
  EXPECT_FALSE(warm.reset);
  EXPECT_EQ(warm.window, 1);
  EXPECT_TRUE(warm.incremental);
}

// ---------------------------------------------------------------------------
// Service integration: the default engine and named fleet arrays.
// ---------------------------------------------------------------------------

TEST(StreamServiceTest, SchedulingServiceStreamsAndEvicts) {
  fleet::FleetService service{fleet::FleetService::Config{}};
  ASSERT_TRUE(service.submitStream(makeStreamRequest("a")).ok);
  // The session manager's bound (64) evicts the least recently used.
  for (int i = 0; i < 64; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    ASSERT_TRUE(service.submitStream(makeStreamRequest(name)).ok);
  }
  const StreamOutcome a = service.submitStream(makeStreamRequest("a"));
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.window, 0);
  EXPECT_TRUE(a.reset);
  EXPECT_TRUE(service.closeStream("a"));
  EXPECT_FALSE(service.closeStream("a"));
}

TEST(StreamServiceTest, ShardedRoutingIsStickyPerSessionName) {
  fleet::FleetService service{fleet::FleetService::Config{}};
  // The window counter advancing proves every submit reached the same
  // session even as the trace (and so the job digest) changes.
  for (int tail = 1; tail <= 6; ++tail) {
    const StreamOutcome out =
        service.submitStream(makeStreamRequest("sticky", tail));
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.window, tail - 1);
  }
  EXPECT_TRUE(service.closeStream("sticky"));
  EXPECT_FALSE(service.closeStream("sticky"));
}

TEST(StreamFleetTest, FleetStreamsMatchTheOneShotPath) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  fleet::FleetService fleet(std::move(config));
  OneShot oneShot{OneShot::Config{}};
  for (int tail = 1; tail <= 3; ++tail) {
    const StreamOutcome window =
        fleet.submitStream(makeStreamRequest("s", tail));
    ASSERT_TRUE(window.ok) << window.error;
    ASSERT_NE(window.result, nullptr);

    StreamRequest fresh = makeStreamRequest("s", tail);
    const SubmitOutcome submitted = oneShot.submit(fresh.job);
    ASSERT_TRUE(submitted.accepted);
    const auto expected = oneShot.result(submitted.id);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(window.result->scheduleText, expected->scheduleText);
    EXPECT_EQ(window.result->digest, expected->digest);
  }
  EXPECT_TRUE(fleet.closeStream("s"));
}

TEST(StreamFleetTest, RequestRepeatingAnArrayFaultMatchesTheOneShotPath) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4:proc:5");
  fleet::FleetService fleet(config);
  StreamRequest request = makeStreamRequest("s");
  request.job.faults = {"proc:5"};  // already dead on the hosting array
  const StreamOutcome window = fleet.submitStream(request);
  ASSERT_TRUE(window.ok) << window.error;
  ASSERT_NE(window.result, nullptr);

  // A second fleet: the first one caches the window's result.
  fleet::FleetService oneShot(std::move(config));
  const SubmitOutcome submitted = oneShot.submit(request.job);
  ASSERT_TRUE(submitted.accepted) << submitted.reason;
  const auto expected = oneShot.result(submitted.id);
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(window.result->scheduleText, expected->scheduleText);
}

TEST(StreamFleetTest, GridWithNoMatchingArrayIsRejected) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  fleet::FleetService fleet(std::move(config));
  StreamRequest request = makeStreamRequest("s");
  request.job.gridRows = 8;
  request.job.gridCols = 8;
  const StreamOutcome out = fleet.submitStream(request);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.errorKind, "invalid");
}

TEST(StreamFleetTest, DriftOnTheHostingArrayInvalidatesTheSession) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  fleet::FleetService fleet(std::move(config));
  ASSERT_TRUE(fleet.submitStream(makeStreamRequest("s", 1)).ok);
  ASSERT_TRUE(fleet.submitStream(makeStreamRequest("s", 2)).ok);

  const DriftOutcome drift = fleet.applyDrift("only", {"proc:5"}, false);
  ASSERT_TRUE(drift.ok) << drift.error;

  // The warm state died with the drift; the next window starts a fresh
  // session whose solve sees the array's NEW fault set, and matches the
  // one-shot path under those faults.
  const StreamOutcome after = fleet.submitStream(makeStreamRequest("s", 3));
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.window, 0);
  EXPECT_TRUE(after.reset);

  OneShot oneShot{OneShot::Config{}};
  StreamRequest fresh = makeStreamRequest("s", 3);
  fresh.job.faults = {"proc:5"};
  const SubmitOutcome submitted = oneShot.submit(fresh.job);
  ASSERT_TRUE(submitted.accepted);
  const auto expected = oneShot.result(submitted.id);
  ASSERT_NE(expected, nullptr);
  ASSERT_NE(after.result, nullptr);
  EXPECT_EQ(after.result->scheduleText, expected->scheduleText);

  // Healing drifts again: the re-created session is invalidated too.
  ASSERT_TRUE(fleet.applyDrift("only", {}, true).ok);
  const StreamOutcome healed =
      fleet.submitStream(makeStreamRequest("s", 4));
  ASSERT_TRUE(healed.ok);
  EXPECT_EQ(healed.window, 0);
  EXPECT_TRUE(healed.reset);
}

TEST(StreamFleetTest, DriftDuringAWindowRerunsItUnderTheLiveFaults) {
  fleet::FleetService* service = nullptr;
  int runs = 0;
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  // Window 3's run is where the array drifts.
  config.onJobAttempt = [&](int) {
    if (++runs == 3) {
      EXPECT_TRUE(service->applyDrift("only", {"proc:5"}, false).ok);
    }
  };
  fleet::FleetService fleet(std::move(config));
  service = &fleet;
  ASSERT_TRUE(fleet.submitStream(makeStreamRequest("s", 1)).ok);
  ASSERT_TRUE(fleet.submitStream(makeStreamRequest("s", 2)).ok);
  const std::int64_t resolved = fleet.fleetStats().rebalance.resolved;

  const StreamOutcome third = fleet.submitStream(makeStreamRequest("s", 3));
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_TRUE(third.reset);
  EXPECT_EQ(third.window, 0);
  EXPECT_EQ(fleet.fleetStats().rebalance.resolved, resolved + 1);
  EXPECT_EQ(fleet.fleetStats().rebalance.staleServed, 0);

  OneShot oneShot{OneShot::Config{}};
  StreamRequest fresh = makeStreamRequest("s", 3);
  fresh.job.faults = {"proc:5"};
  const SubmitOutcome submitted = oneShot.submit(fresh.job);
  ASSERT_TRUE(submitted.accepted);
  const auto expected = oneShot.result(submitted.id);
  ASSERT_NE(expected, nullptr);
  ASSERT_NE(third.result, nullptr);
  EXPECT_EQ(third.result->scheduleText, expected->scheduleText);
}

TEST(StreamFleetTest, WindowPastTheTenantQuotaIsRefused) {
  RunGate gate;
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  config.tenantQueueDepth = 1;
  config.onJobAttempt = gate.hook();
  fleet::FleetService fleet(std::move(config));
  // The first job holds the array; the second fills the tenant's quota.
  const bool firstAccepted =
      fleet.submit(makeStreamRequest("x", 9).job).accepted;
  const bool secondAccepted =
      fleet.submit(makeStreamRequest("x", 8).job).accepted;
  const StreamOutcome window = fleet.submitStream(makeStreamRequest("s"));
  gate.release.set_value();

  EXPECT_TRUE(firstAccepted);
  EXPECT_TRUE(secondAccepted);
  EXPECT_FALSE(window.ok);
  EXPECT_EQ(window.errorKind, "invalid");
  EXPECT_NE(window.error.find("tenant quota exceeded"), std::string::npos)
      << window.error;
}

TEST(StreamFleetTest, QueuedWindowPastItsDeadlineExpires) {
  RunGate gate;
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  config.onJobAttempt = gate.hook();
  fleet::FleetService fleet(std::move(config));
  const bool blockerAccepted =
      fleet.submit(makeStreamRequest("x", 9).job).accepted;

  StreamRequest request = makeStreamRequest("s");
  request.job.deadlineMs = 1;
  std::future<StreamOutcome> window = std::async(
      std::launch::async, [&] { return fleet.submitStream(request); });
  while (fleet.stats().queueDepth == 0 &&
         window.wait_for(std::chrono::milliseconds(1)) !=
             std::future_status::ready) {
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.release.set_value();

  EXPECT_TRUE(blockerAccepted);
  const StreamOutcome out = window.get();
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.errorKind, "expired") << out.error;
  EXPECT_EQ(fleet.stats().expired, 1);
}

TEST(StreamFleetTest, WindowsCountInTheArrayAndTenantRows) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  fleet::FleetService fleet(std::move(config));
  for (int tail = 1; tail <= 2; ++tail) {
    StreamRequest request = makeStreamRequest("s", tail);
    request.job.tenant = "acme";
    ASSERT_TRUE(fleet.submitStream(request).ok);
  }
  const fleet::FleetService::FleetStats stats = fleet.fleetStats();
  ASSERT_EQ(stats.arrays.size(), 1u);
  EXPECT_EQ(stats.arrays[0].dispatched, 2);
  EXPECT_EQ(stats.arrays[0].completed, 2);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].name, "acme");
  EXPECT_EQ(stats.tenants[0].submitted, 2);
  EXPECT_EQ(stats.tenants[0].dispatched, 2);
  EXPECT_EQ(stats.tenants[0].completed, 2);
}

// ---------------------------------------------------------------------------
// Compat digest unit coverage.
// ---------------------------------------------------------------------------

TEST(StreamCompatDigestTest, TraceContentDoesNotChangeIt) {
  const Digest base = streamCompatDigest(makeStreamRequest("s").job);
  EXPECT_EQ(streamCompatDigest(makeStreamRequest("s", 7).job), base);

  StreamRequest grid = makeStreamRequest("s");
  grid.job.gridRows = 2;
  grid.job.gridCols = 8;
  EXPECT_NE(streamCompatDigest(grid.job), base);

  StreamRequest method = makeStreamRequest("s");
  method.job.method = Method::kScds;
  EXPECT_NE(streamCompatDigest(method.job), base);

  StreamRequest faults = makeStreamRequest("s");
  faults.job.faults = {"proc:5"};
  EXPECT_NE(streamCompatDigest(faults.job), base);

  StreamRequest tenant = makeStreamRequest("s");
  tenant.job.tenant = "acme";
  EXPECT_NE(streamCompatDigest(tenant.job), base);

  // The hosting array's faults are part of it; the trace still is not.
  const std::vector<std::string> arrayFaults = {"proc:5"};
  const Digest drifted =
      streamCompatDigest(makeStreamRequest("s").job, arrayFaults);
  EXPECT_NE(drifted, base);
  EXPECT_EQ(streamCompatDigest(makeStreamRequest("s", 7).job, arrayFaults),
            drifted);

  StreamRequest windows = makeStreamRequest("s");
  windows.job.config.numWindows = 7;
  EXPECT_NE(streamCompatDigest(windows.job), base);
}

TEST(StreamCompatDigestTest, SessionNameValidation) {
  EXPECT_TRUE(validSessionName("a"));
  EXPECT_TRUE(validSessionName("user-7.stream_A"));
  EXPECT_TRUE(validSessionName(std::string(64, 'x')));
  EXPECT_FALSE(validSessionName(""));
  EXPECT_FALSE(validSessionName(std::string(65, 'x')));
  EXPECT_FALSE(validSessionName("no spaces"));
  EXPECT_FALSE(validSessionName("no/slash"));
}

}  // namespace
}  // namespace pimsched::serve
