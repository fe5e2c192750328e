// fleet_bench — measures the fleet layer end to end and gates the two
// properties the design promises (see docs/fleet.md):
//
//   Phase A (placement): replay a deterministic mixed job stream through
//   the cost-aware array selector and through blind round-robin over the
//   same 3-array fleet (one array heavily degraded), charging each array
//   the ACTUAL evaluated cost of every job placed on it. The aggregate
//   makespan (max over arrays of its summed cost) of the cost policy must
//   not lose to round-robin, or the bench exits nonzero.
//
//   Phase B (fairness): run a live FleetService with two tenants at 4:1
//   weights, flood both queues, and check the dispatch share over the
//   contended window lands within 25% of 4:1 with zero starved jobs.
//   Per-tenant p50/p95/p99 latency and per-array utilization are
//   reported.
//
// Results land in results/bench_fleet.json (override with --out FILE).
// --smoke shrinks the run to CI size; the JSON shape is identical.
// In-process — no daemon needed.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_service.hpp"
#include "kernels/benchmarks.hpp"
#include "pim/grid.hpp"
#include "serve/service.hpp"

namespace {

using namespace pimsched;
using fleet::ArrayLoad;
using fleet::ArraySelector;
using fleet::ArraySpec;
using fleet::FleetPolicy;
using serve::JobRequest;

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// The bench fleet: one healthy array, one lightly degraded, one heavily
/// degraded. All 4x4, so every job is eligible everywhere and only the
/// selector decides placement.
std::vector<ArraySpec> benchFleet() {
  return {
      {"healthy", 4, 4, {}},
      {"light", 4, 4, {"proc:5"}},
      {"heavy", 4, 4, {"proc:5", "proc:6", "proc:9", "link:0-1"}},
  };
}

/// Deterministic mixed job stream on a 4x4 grid.
std::vector<JobRequest> buildJobs(bool smoke) {
  const Grid grid(4, 4);
  struct Pick {
    PaperBenchmark kind;
    int n;
  };
  const std::vector<Pick> picks = {
      {PaperBenchmark::kMatSquare, 8},  {PaperBenchmark::kLu, 8},
      {PaperBenchmark::kMatSquare, 12}, {PaperBenchmark::kCodeRev, 8},
      {PaperBenchmark::kLu, 10},        {PaperBenchmark::kMatCode, 8},
  };
  const int rounds = smoke ? 2 : 4;
  std::vector<JobRequest> jobs;
  for (int r = 0; r < rounds; ++r) {
    for (const Pick& pick : picks) {
      JobRequest req;
      req.trace = makePaperBenchmark(pick.kind, grid, pick.n);
      req.trace.finalize();
      req.gridRows = 4;
      req.gridCols = 4;
      req.config.numWindows = 8;
      req.method = Method::kGomcds;
      jobs.push_back(std::move(req));
    }
  }
  return jobs;
}

struct PhaseA {
  Cost makespanCost = 0;
  Cost makespanRoundRobin = 0;
  std::vector<Cost> perArrayCost;        // cost policy
  std::vector<Cost> perArrayRoundRobin;  // roundrobin policy
};

/// Replays `jobs` through a fresh fleet under `policy`, synchronously:
/// each placement charges the array the job's actual evaluated cost, and
/// (for the cost policy) that charge feeds back into the next selection as
/// outstanding work — the same accounting FleetService does live. `memo`
/// caches actual costs per (job, array) so both policies price a
/// placement once.
std::vector<Cost> replay(const std::vector<JobRequest>& jobs,
                         FleetPolicy policy,
                         std::map<std::pair<std::size_t, int>, Cost>& memo) {
  fleet::ArrayFleet arrayFleet(benchFleet());
  ArraySelector selector(arrayFleet, policy);
  std::vector<ArrayLoad> loads(arrayFleet.size());
  std::vector<Cost> perArray(arrayFleet.size(), 0);
  const std::vector<std::size_t> eligible = arrayFleet.eligibleFor(4, 4);
  std::vector<Cost> scratch;

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::vector<ProcWeight> refs =
        fleet::aggregateTraceRefs(jobs[j].trace);
    Cost est = 0;
    int idx = selector.select(refs, jobs[j].trace.numData(), -1, eligible,
                              loads, &est);
    if (idx < 0) idx = static_cast<int>(eligible.front());

    const auto key = std::make_pair(j, idx);
    auto it = memo.find(key);
    if (it == memo.end()) {
      const auto result = serve::executeJobRequest(
          jobs[j],
          arrayFleet.at(static_cast<std::size_t>(idx)).canonicalFaults());
      it = memo.emplace(key, result->eval.aggregate.total()).first;
    }
    const Cost actual = it->second;
    perArray[static_cast<std::size_t>(idx)] += actual;
    loads[static_cast<std::size_t>(idx)].outstandingWork +=
        static_cast<double>(actual);
  }
  return perArray;
}

PhaseA runPhaseA(const std::vector<JobRequest>& jobs) {
  PhaseA out;
  std::map<std::pair<std::size_t, int>, Cost> memo;
  out.perArrayCost = replay(jobs, FleetPolicy::kCost, memo);
  out.perArrayRoundRobin = replay(jobs, FleetPolicy::kRoundRobin, memo);
  out.makespanCost =
      *std::max_element(out.perArrayCost.begin(), out.perArrayCost.end());
  out.makespanRoundRobin = *std::max_element(
      out.perArrayRoundRobin.begin(), out.perArrayRoundRobin.end());
  return out;
}

struct TenantOutcome {
  std::string name;
  std::size_t jobs = 0;
  std::size_t done = 0;
  std::int64_t contended = 0;
  std::int64_t dispatched = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

struct PhaseB {
  std::vector<TenantOutcome> tenants;
  std::vector<fleet::FleetService::ArrayStatsRow> arrays;
  /// alpha:beta dispatch share over the window where both tenants still
  /// had undispatched jobs — the fair-share measurement (after the window
  /// the survivor runs alone and its share says nothing about weights).
  double fairShareRatio = 0;
  std::size_t starved = 0;
};

PhaseB runPhaseB(bool smoke) {
  fleet::FleetService::Config config;
  config.arrays = benchFleet();
  config.policy = FleetPolicy::kCost;
  config.concurrencyPerArray = 1;
  // Fairness is the measurement: no result cache (every job must be
  // scheduled, not answered from memory) and aging pushed out of reach so
  // the contended-dispatch split reflects the 4:1 stride weights alone.
  config.maxCacheEntries = 0;
  config.agingMs = 3'600'000;
  config.maxQueueDepth = 4096;
  config.tenantQueueDepth = 2048;
  config.tenantWeights = {{"alpha", 4.0}, {"beta", 1.0}};

  const int perTenant = smoke ? 16 : 40;
  // Dispatch order, appended under the service lock at every dispatch;
  // read only after every job has finished.
  std::vector<std::string> dispatchOrder;
  config.onDispatch = [&dispatchOrder](serve::JobId, const std::string&,
                                       const std::string& tenant) {
    dispatchOrder.push_back(tenant);
  };
  // Hold every dispatched job at its run start until the whole load is
  // submitted: without this, fast jobs drain as quickly as the loop
  // offers them, the queues never fill, and there is no contention for
  // the fair-share machinery to arbitrate.
  std::promise<void> releasePromise;
  std::shared_future<void> release = releasePromise.get_future().share();
  config.onJobAttempt = [release](int) { release.wait(); };
  const Grid grid(4, 4);
  const ReferenceTrace base = makePaperBenchmark(PaperBenchmark::kMatSquare,
                                                 grid, smoke ? 8 : 10);

  fleet::FleetService service(std::move(config));
  std::map<std::string, std::vector<serve::JobId>> ids;
  for (int i = 0; i < perTenant; ++i) {
    // A per-job weight nonce keeps every job of a tenant distinct:
    // identical in-flight jobs of one tenant would coalesce into one run.
    ReferenceTrace trace(base.dataSpace());
    for (const Access& ref : base.accesses()) {
      trace.add(ref.step, ref.proc, ref.data,
                ref.weight + (ref.step == 0 && ref.data == 0 ? i : 0));
    }
    trace.finalize();
    for (const char* tenant : {"alpha", "beta"}) {
      JobRequest req;
      req.trace = trace;
      req.gridRows = 4;
      req.gridCols = 4;
      req.config.numWindows = 8;
      req.method = Method::kGomcds;
      req.tenant = tenant;
      const auto outcome = service.submit(std::move(req));
      if (!outcome.accepted) {
        throw std::runtime_error("phase B submit rejected: " +
                                 outcome.reason);
      }
      ids[tenant].push_back(outcome.id);
    }
  }
  releasePromise.set_value();

  PhaseB out;
  for (auto& [tenant, jobIds] : ids) {
    TenantOutcome row;
    row.name = tenant;
    row.jobs = jobIds.size();
    std::vector<double> latenciesMs;
    for (const serve::JobId id : jobIds) {
      const auto result = service.result(id, /*wait=*/true);
      const auto status = service.status(id);
      if (result != nullptr && status.has_value() &&
          status->state == serve::JobState::kDone) {
        ++row.done;
        latenciesMs.push_back(
            static_cast<double>(result->waitNs + result->runNs) / 1e6);
      }
    }
    std::sort(latenciesMs.begin(), latenciesMs.end());
    row.p50 = percentile(latenciesMs, 0.50);
    row.p95 = percentile(latenciesMs, 0.95);
    row.p99 = percentile(latenciesMs, 0.99);
    out.starved += row.jobs - row.done;
    out.tenants.push_back(std::move(row));
  }

  const auto stats = service.fleetStats();
  out.arrays = stats.arrays;
  for (const auto& tenantStats : stats.tenants) {
    for (TenantOutcome& row : out.tenants) {
      if (row.name == tenantStats.name) {
        row.contended = tenantStats.contended;
        row.dispatched = tenantStats.dispatched;
      }
    }
  }
  // Fair-share window: walk the dispatch order until either tenant has
  // dispatched its whole load; the ratio inside that window is what the
  // 4:1 stride weights control.
  std::int64_t alphaWindow = 0, betaWindow = 0;
  for (const std::string& tenant : dispatchOrder) {
    if (tenant == "alpha") ++alphaWindow;
    if (tenant == "beta") ++betaWindow;
    if (alphaWindow == perTenant || betaWindow == perTenant) break;
  }
  out.fairShareRatio =
      betaWindow > 0 ? static_cast<double>(alphaWindow) /
                           static_cast<double>(betaWindow)
                     : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string outPath = "results/bench_fleet.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::cerr << "usage: fleet_bench [--smoke] [--out FILE]\n";
      return 2;
    }
  }

  try {
    const std::vector<JobRequest> jobs = buildJobs(smoke);
    const PhaseA a = runPhaseA(jobs);
    std::cout << "placement: " << jobs.size()
              << " jobs -> makespan cost=" << a.makespanCost
              << " roundrobin=" << a.makespanRoundRobin << "\n";

    const PhaseB b = runPhaseB(smoke);
    for (const TenantOutcome& t : b.tenants) {
      std::cout << "tenant " << t.name << ": " << t.done << "/" << t.jobs
                << " done, " << t.contended << " contended dispatches, p50 "
                << fmt(t.p50) << " ms, p95 " << fmt(t.p95) << " ms, p99 "
                << fmt(t.p99) << " ms\n";
    }
    std::cout << "fair-share alpha:beta = " << fmt(b.fairShareRatio)
              << " (target 4.0 +/- 25%), starved " << b.starved << "\n";

    const auto parent = std::filesystem::path(outPath).parent_path();
    std::filesystem::create_directories(parent.empty() ? "." : parent);
    std::ofstream out(outPath);
    if (!out) {
      std::cerr << "error: cannot open " << outPath << "\n";
      return 1;
    }
    const auto arrayNames = benchFleet();
    out << "{\n  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"placement\": {\n"
        << "    \"jobs\": " << jobs.size() << ",\n"
        << "    \"makespan\": {\"cost\": " << a.makespanCost
        << ", \"roundrobin\": " << a.makespanRoundRobin << "},\n"
        << "    \"per_array\": [\n";
    for (std::size_t i = 0; i < arrayNames.size(); ++i) {
      out << "      {\"name\": \"" << arrayNames[i].name
          << "\", \"cost\": " << a.perArrayCost[i]
          << ", \"roundrobin\": " << a.perArrayRoundRobin[i] << "}"
          << (i + 1 < arrayNames.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n"
        << "  \"fairness\": {\n"
        << "    \"fair_share_ratio\": " << fmt(b.fairShareRatio) << ",\n"
        << "    \"target_ratio\": 4.0,\n"
        << "    \"starved\": " << b.starved << ",\n"
        << "    \"tenants\": [\n";
    for (std::size_t i = 0; i < b.tenants.size(); ++i) {
      const TenantOutcome& t = b.tenants[i];
      out << "      {\"name\": \"" << t.name << "\", \"jobs\": " << t.jobs
          << ", \"done\": " << t.done << ", \"dispatched\": " << t.dispatched
          << ", \"contended\": " << t.contended << ", \"latency_ms\": "
          << "{\"p50\": " << fmt(t.p50) << ", \"p95\": " << fmt(t.p95)
          << ", \"p99\": " << fmt(t.p99) << "}}"
          << (i + 1 < b.tenants.size() ? "," : "") << "\n";
    }
    out << "    ],\n    \"array_utilization\": [\n";
    std::int64_t totalDispatched = 0;
    for (const auto& row : b.arrays) totalDispatched += row.dispatched;
    for (std::size_t i = 0; i < b.arrays.size(); ++i) {
      const auto& row = b.arrays[i];
      const double share =
          totalDispatched > 0 ? static_cast<double>(row.dispatched) /
                                    static_cast<double>(totalDispatched)
                              : 0.0;
      out << "      {\"name\": \"" << row.name << "\", \"dispatched\": "
          << row.dispatched << ", \"share\": " << fmt(share) << "}"
          << (i + 1 < b.arrays.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n"
        << "  \"ok\": true\n}\n";
    std::cout << "wrote " << outPath << "\n";

    // ---- Gates. ------------------------------------------------------
    int rc = 0;
    if (a.makespanCost > a.makespanRoundRobin) {
      std::cerr << "error: cost-aware selector lost to round-robin on "
                   "aggregate makespan ("
                << a.makespanCost << " > " << a.makespanRoundRobin << ")\n";
      rc = 1;
    }
    if (b.starved != 0) {
      std::cerr << "error: " << b.starved << " jobs starved\n";
      rc = 1;
    }
    if (b.fairShareRatio < 3.0 || b.fairShareRatio > 5.0) {
      std::cerr << "error: fair-share dispatch ratio " << fmt(b.fairShareRatio)
                << " outside 4.0 +/- 25%\n";
      rc = 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
