// serve_load — closed-loop load generator for the pimsched_served daemon.
// Drives a mixed stream of scheduling jobs (different kernels, sizes,
// methods, priorities and fault specs) from N concurrent persistent
// connections against a LIVE daemon, then storms it with one identical
// job from every client to prove in-flight coalescing collapses the storm
// to a single pipeline run. Emits throughput and p50/p95/p99 latency to
// results/bench_serve.json.
//
//   serve_load (--socket PATH | --tcp HOST:PORT) [--clients N]
//              [--requests N] [--smoke] [--out FILE] [--no-storm]
//              [--tenants N] [--arrays N] [--starve-ms MS]
//              [--chaos] [--chaos-seed N]
//
// Closed loop: every client waits for its reply before sending the next
// request, so offered load adapts to what the daemon sustains (the
// classic closed-system model — throughput is the measurement, not the
// input). --smoke shrinks the run to CI size; the JSON shape is
// identical. Exit code 0 only when every request got an ok reply, the
// run sustained nonzero throughput and (unless --no-storm) the storm
// coalesced to exactly one pipeline run.
//
// Against a fleet daemon (pimsched_served --fleet, see docs/fleet.md):
// --tenants N tags client c's submissions as tenant "t<c mod N>" so the
// daemon's fair-share admission arbitrates between them, and the JSON
// gains per-tenant p50/p95/p99 latency plus per-array utilization read
// from the stats verb's "fleet" extras. --arrays N asserts the daemon
// serves exactly N arrays. --starve-ms MS fails the run when any
// request's latency exceeded MS (a starvation bound). The coalescing
// storm runs against fleet daemons too: its submits carry no tenant, so
// they form one coalescing group whatever --tenants says.
//
// --chaos (fleet daemons only) turns the run into a live fault-drift
// drill. A seeded injector thread flips interior-processor faults on and
// off every array except the first (the safe harbor that keeps the fleet
// placeable) WHILE the mixed load runs; every reply must still say
// state "done". After the load, a migration drill queues a burst of
// distinct async jobs, partitions one array (row:1 quarantines it), and
// then result-waits every burst job: queued plans must migrate and
// in-flight work must re-run or requeue — zero lost jobs. The run
// exits nonzero unless every job completed, the daemon counted zero
// stale-served results, at least one drift event landed and some job
// was requeued or re-run. Chaos output defaults to
// results/bench_chaos.json; --chaos-seed makes the schedule reproducible
// (default 20260809).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kernels/benchmarks.hpp"
#include "pim/grid.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace pimsched;
using serve::Connection;
using serve::Json;
using Clock = std::chrono::steady_clock;

/// Every connection waits this long for the daemon to start listening,
/// so a load run can be launched right behind the daemon.
constexpr std::chrono::seconds kConnectWait{5};

/// One request line out, its parsed reply back.
Json ask(Connection& conn, const std::string& line) {
  return Json::parse(conn.roundTrip(line));
}

/// One entry of the mixed workload: a fully-built submit request line.
struct MixJob {
  std::string name;
  std::string line;
};

std::string traceText(PaperBenchmark kind, const Grid& grid, int n) {
  const ReferenceTrace trace = makePaperBenchmark(kind, grid, n);
  std::ostringstream os;
  saveTrace(trace, os);
  return std::move(os).str();
}

std::string submitLine(const std::string& traceStr, const std::string& grid,
                       const std::string& method, int windows, int priority,
                       const std::vector<std::string>& faults) {
  Json request;
  request.set("verb", "submit")
      .set("trace", traceStr)
      .set("grid", grid)
      .set("method", method)
      .set("windows", windows)
      .set("priority", priority)
      .set("wait", true);
  if (!faults.empty()) {
    Json::Array specs;
    for (const std::string& f : faults) specs.push_back(Json(f));
    request.set("faults", Json(std::move(specs)));
  }
  return request.dump();
}

/// The mixed-traffic job set: several kernels and sizes, a spread of
/// methods from cheap baselines to full GOMCDS, two priority levels and a
/// couple of faulted variants — roughly what a multi-tenant front end
/// sees. Deterministic, so runs are comparable. `faultAwareOnly` drops
/// the fault-oblivious baselines (scds, rowwise): under live drift those
/// are correctly REFUSED on a faulted array — a different guarantee than
/// the zero-lost-jobs one the chaos run measures.
std::vector<MixJob> buildMix(bool smoke, bool faultAwareOnly) {
  const Grid grid(4, 4);
  const int small = smoke ? 8 : 12;
  const int large = smoke ? 12 : 20;
  std::vector<MixJob> mix;
  const std::string matSmall =
      traceText(PaperBenchmark::kMatSquare, grid, small);
  const std::string matLarge =
      traceText(PaperBenchmark::kMatSquare, grid, large);
  const std::string lu = traceText(PaperBenchmark::kLu, grid, small);
  const std::string irregular =
      traceText(PaperBenchmark::kCodeRev, grid, small);

  mix.push_back({"mat-small-gomcds",
                 submitLine(matSmall, "4x4", "gomcds", 8, 0, {})});
  mix.push_back({"mat-large-gomcds",
                 submitLine(matLarge, "4x4", "gomcds", 8, 0, {})});
  if (!faultAwareOnly) {
    mix.push_back({"mat-small-scds",
                   submitLine(matSmall, "4x4", "scds", 8, 1, {})});
  }
  mix.push_back({"lu-gomcds", submitLine(lu, "4x4", "gomcds", 8, 0, {})});
  mix.push_back({"lu-lomcds", submitLine(lu, "4x4", "lomcds", 8, 2, {})});
  mix.push_back({"irregular-gomcds",
                 submitLine(irregular, "4x4", "gomcds", 8, 0, {})});
  if (!faultAwareOnly) {
    mix.push_back({"mat-small-rowwise",
                   submitLine(matSmall, "4x4", "rowwise", 8, 0, {})});
  }
  mix.push_back({"mat-faulted-gomcds",
                 submitLine(matSmall, "4x4", "gomcds", 8, 1,
                            {"proc:5", "link:0-1"})});
  mix.push_back({"lu-faulted-gomcds",
                 submitLine(lu, "4x4", "gomcds", 8, 0, {"proc:10"})});
  return mix;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

std::int64_t statField(const Json& stats, const std::string& key) {
  const Json* v = stats.find(key);
  return v == nullptr ? 0 : v->asInt64();
}

/// Sends a fault-inject (or, with no specs, a heal) for `array` and
/// throws on a rejected reply — a failed drift RPC fails the chaos run.
Json driftRpc(Connection& conn, const std::string& array,
              const std::vector<std::string>& faults) {
  Json request;
  request.set("verb", faults.empty() ? "heal" : "fault-inject")
      .set("array", array);
  if (!faults.empty()) {
    Json::Array specs;
    for (const std::string& f : faults) specs.push_back(Json(f));
    request.set("faults", Json(std::move(specs)));
  }
  const Json reply = ask(conn, request.dump());
  const Json* ok = reply.find("ok");
  if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
    throw std::runtime_error(std::string(faults.empty() ? "heal"
                                                        : "fault-inject") +
                             " rejected on " + array + ": " + reply.dump());
  }
  return reply;
}

}  // namespace

int main(int argc, char** argv) {
  serve::Endpoint endpoint;
  bool smoke = false;
  bool storm = true;
  int clients = 0;
  int requestsPerClient = 0;
  int tenants = 0;
  int expectArrays = 0;
  double starveMs = 0;
  bool chaos = false;
  std::uint64_t chaosSeed = 20260809;
  std::int64_t chaosSettleMs = 2500;
  bool outGiven = false;
  std::string outPath = "results/bench_serve.json";
  const auto usage = [] {
    std::cerr << "usage: serve_load (--socket PATH | --tcp HOST:PORT) "
                 "[--clients N] [--requests N] [--smoke] [--out FILE] "
                 "[--no-storm] [--tenants N] [--arrays N] "
                 "[--starve-ms MS] [--chaos] [--chaos-seed N] "
                 "[--chaos-settle-ms MS]\n";
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 < argc &&
          serve::parseEndpointFlag(arg, argv[i + 1], &endpoint)) {
        ++i;
      } else if (arg == "--clients" && i + 1 < argc) {
        clients = std::stoi(argv[++i]);
      } else if (arg == "--requests" && i + 1 < argc) {
        requestsPerClient = std::stoi(argv[++i]);
      } else if (arg == "--tenants" && i + 1 < argc) {
        tenants = std::stoi(argv[++i]);
      } else if (arg == "--arrays" && i + 1 < argc) {
        expectArrays = std::stoi(argv[++i]);
      } else if (arg == "--starve-ms" && i + 1 < argc) {
        starveMs = std::stod(argv[++i]);
      } else if (arg == "--out" && i + 1 < argc) {
        outPath = argv[++i];
        outGiven = true;
      } else if (arg == "--chaos") {
        chaos = true;
      } else if (arg == "--chaos-seed" && i + 1 < argc) {
        chaosSeed = std::stoull(argv[++i]);
      } else if (arg == "--chaos-settle-ms" && i + 1 < argc) {
        chaosSettleMs = std::stoll(argv[++i]);
      } else if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--no-storm") {
        storm = false;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    // A malformed --tcp, or a number std::stoi & co. cannot read.
    std::cerr << "error: " << e.what() << '\n';
    return usage();
  }
  // A --chaos run measures fault drift instead of coalescing.
  if (chaos) storm = false;
  if (chaos && !outGiven) outPath = "results/bench_chaos.json";
  if (endpoint.name().empty()) {
    std::cerr << "error: need --socket PATH or --tcp HOST:PORT (a live "
                 "pimsched_served daemon)\n";
    return 2;
  }
  if (clients <= 0) clients = smoke ? 4 : 16;
  if (requestsPerClient <= 0) requestsPerClient = smoke ? 6 : 25;

  try {
    // ---- Chaos pre-flight: learn the fleet topology. -----------------
    // The first array the daemon lists is the safe harbor — never
    // injected, so the fleet always has somewhere admissible to place
    // work while the others drift.
    std::vector<std::string> chaosTargets;
    if (chaos) {
      Connection conn(endpoint, kConnectWait);
      const Json statsReply = ask(conn, R"({"verb":"stats"})");
      const Json* fleet = statsReply.find("fleet");
      const Json* fleetArrays =
          fleet != nullptr ? fleet->find("arrays") : nullptr;
      if (fleetArrays == nullptr || !fleetArrays->isArray() ||
          fleetArrays->asArray().size() < 2) {
        std::cerr << "error: --chaos needs a fleet daemon with at least "
                     "2 arrays (start it with --fleet "
                     "\"a0=4x4;a1=4x4;a2=4x4\")\n";
        return 1;
      }
      bool first = true;
      for (const Json& row : fleetArrays->asArray()) {
        const Json* name = row.find("name");
        if (name == nullptr) continue;
        if (first) {
          first = false;
          continue;
        }
        chaosTargets.push_back(name->asString());
      }
    }

    // ---- Phase 1: mixed closed-loop traffic. -------------------------
    const std::vector<MixJob> mix = buildMix(smoke, chaos);
    // Per-tenant variants of the mix: client c submits as tenant
    // "t<c mod tenants>" so a fleet daemon's fair-share admission has
    // competing queues to arbitrate.
    std::vector<std::vector<std::string>> tenantLines;
    for (int t = 0; t < tenants; ++t) {
      std::string tenantName = "t";
      tenantName += std::to_string(t);
      std::vector<std::string> lines;
      lines.reserve(mix.size());
      for (const MixJob& job : mix) {
        Json request = Json::parse(job.line);
        request.set("tenant", tenantName);
        lines.push_back(request.dump());
      }
      tenantLines.push_back(std::move(lines));
    }
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));
    std::vector<std::string> clientErrors(
        static_cast<std::size_t>(clients));
    std::atomic<int> okReplies{0};
    std::atomic<int> cacheHits{0};

    // ---- Chaos injector: flips faults WHILE the load runs. -----------
    std::atomic<bool> chaosStop{false};
    std::atomic<std::int64_t> chaosInjects{0};
    std::atomic<std::int64_t> chaosHeals{0};
    std::string chaosThreadError;
    std::thread chaosThread;
    if (chaos) {
      chaosThread = std::thread([&] {
        try {
          Connection conn(endpoint, kConnectWait);
          std::uint64_t lcg = chaosSeed;
          const auto rnd = [&lcg](std::uint64_t mod) -> std::uint64_t {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            return (lcg >> 33) % mod;
          };
          // Interior processors of a 4x4: killing any single one cannot
          // partition the mesh even combined with the mix's own fault
          // specs, so mid-run drift degrades arrays without stranding
          // whatever is running on them.
          const int interior[] = {5, 6, 9, 10};
          while (!chaosStop.load(std::memory_order_acquire)) {
            const std::string& victim =
                chaosTargets[rnd(chaosTargets.size())];
            const std::string spec =
                "proc:" + std::to_string(interior[rnd(4)]);
            driftRpc(conn, victim, {spec});
            chaosInjects.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20 + rnd(40)));
            driftRpc(conn, victim, {});
            chaosHeals.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 + rnd(30)));
          }
        } catch (const std::exception& e) {
          chaosThreadError = e.what();
        }
      });
    }

    const Clock::time_point wallStart = Clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        try {
          Connection conn(endpoint, kConnectWait);
          for (int r = 0; r < requestsPerClient; ++r) {
            // Deterministic mixed pick, de-phased across clients so the
            // daemon sees interleaved distinct and repeated jobs.
            const std::size_t pick =
                static_cast<std::size_t>(c * 7 + r * 3) % mix.size();
            const MixJob& job = mix[pick];
            const std::string& line =
                tenants > 0
                    ? tenantLines[static_cast<std::size_t>(c % tenants)][pick]
                    : job.line;
            const Clock::time_point t0 = Clock::now();
            const Json reply = ask(conn, line);
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          t0)
                    .count();
            const Json* ok = reply.find("ok");
            if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
              throw std::runtime_error("request failed (" + job.name +
                                       "): " + reply.dump());
            }
            if (chaos) {
              // A failed job still replies ok:true with state "failed";
              // under drift "no protocol errors" is not enough — every
              // job must actually complete.
              const Json* state = reply.find("state");
              if (state == nullptr || state->asString() != "done") {
                throw std::runtime_error("job not done under chaos (" +
                                         job.name + "): " + reply.dump());
              }
            }
            latencies[static_cast<std::size_t>(c)].push_back(ms);
            okReplies.fetch_add(1, std::memory_order_relaxed);
            const Json* hit = reply.find("cache_hit");
            if (hit != nullptr && hit->isBool() && hit->asBool()) {
              cacheHits.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } catch (const std::exception& e) {
          clientErrors[static_cast<std::size_t>(c)] = e.what();
        }
      });
    }
    for (std::thread& t : pool) t.join();
    const double wallS =
        std::chrono::duration<double>(Clock::now() - wallStart).count();

    if (chaosThread.joinable()) {
      chaosStop.store(true, std::memory_order_release);
      chaosThread.join();
    }
    if (chaos) {
      // Leave the fleet healthy for the drill, wherever the injector's
      // inject/heal cycle happened to stop (healing a healthy array is a
      // no-op).
      Connection conn(endpoint, kConnectWait);
      for (const std::string& target : chaosTargets) {
        driftRpc(conn, target, {});
      }
      if (!chaosThreadError.empty()) {
        std::cerr << "error: chaos injector: " << chaosThreadError << "\n";
        return 1;
      }
    }

    for (int c = 0; c < clients; ++c) {
      if (!clientErrors[static_cast<std::size_t>(c)].empty()) {
        std::cerr << "error: client " << c << ": "
                  << clientErrors[static_cast<std::size_t>(c)] << "\n";
        return 1;
      }
    }

    std::vector<double> all;
    for (const auto& perClient : latencies) {
      all.insert(all.end(), perClient.begin(), perClient.end());
    }
    std::sort(all.begin(), all.end());
    const int total = clients * requestsPerClient;
    const double throughput = wallS > 0 ? total / wallS : 0.0;
    double sum = 0;
    for (const double v : all) sum += v;
    const double p50 = percentile(all, 0.50);
    const double p95 = percentile(all, 0.95);
    const double p99 = percentile(all, 0.99);

    std::cout << "mixed load: " << total << " jobs over " << clients
              << " clients in " << fmt(wallS) << " s -> "
              << fmt(throughput) << " jobs/s, p50 " << fmt(p50)
              << " ms, p95 " << fmt(p95) << " ms, p99 " << fmt(p99)
              << " ms, cache hits " << cacheHits.load() << "\n";

    // ---- Fleet extras: per-tenant latency, per-array utilization. ----
    struct TenantRow {
      std::string name;
      std::size_t requests = 0;
      double p50 = 0, p95 = 0, p99 = 0, max = 0;
    };
    struct ArrayRow {
      std::string name;
      std::int64_t dispatched = 0;
      double share = 0;
    };
    std::vector<TenantRow> tenantRows;
    std::vector<ArrayRow> arrayRows;
    double slowestMs = all.empty() ? 0.0 : all.back();
    if (tenants > 0) {
      for (int t = 0; t < tenants; ++t) {
        std::vector<double> mine;
        for (int c = t; c < clients; c += tenants) {
          const auto& perClient = latencies[static_cast<std::size_t>(c)];
          mine.insert(mine.end(), perClient.begin(), perClient.end());
        }
        std::sort(mine.begin(), mine.end());
        TenantRow row;
        row.name = "t" + std::to_string(t);
        row.requests = mine.size();
        row.p50 = percentile(mine, 0.50);
        row.p95 = percentile(mine, 0.95);
        row.p99 = percentile(mine, 0.99);
        row.max = mine.empty() ? 0.0 : mine.back();
        std::cout << "tenant " << row.name << ": " << row.requests
                  << " requests, p50 " << fmt(row.p50) << " ms, p95 "
                  << fmt(row.p95) << " ms, p99 " << fmt(row.p99)
                  << " ms\n";
        tenantRows.push_back(std::move(row));
      }
    }
    if (tenants > 0 || expectArrays > 0) {
      Connection statsConn(endpoint, kConnectWait);
      const Json statsReply = ask(statsConn, R"({"verb":"stats"})");
      const Json* fleet = statsReply.find("fleet");
      const Json* fleetArrays =
          fleet != nullptr ? fleet->find("arrays") : nullptr;
      if (fleetArrays == nullptr || !fleetArrays->isArray()) {
        std::cerr << "error: daemon reports no fleet stats (start it with "
                     "--fleet)\n";
        return 1;
      }
      std::int64_t dispatchedTotal = 0;
      for (const Json& row : fleetArrays->asArray()) {
        ArrayRow out;
        const Json* name = row.find("name");
        const Json* dispatched = row.find("dispatched");
        if (name != nullptr) out.name = name->asString();
        if (dispatched != nullptr) out.dispatched = dispatched->asInt64();
        dispatchedTotal += out.dispatched;
        arrayRows.push_back(std::move(out));
      }
      for (ArrayRow& row : arrayRows) {
        row.share = dispatchedTotal > 0
                        ? static_cast<double>(row.dispatched) /
                              static_cast<double>(dispatchedTotal)
                        : 0.0;
        std::cout << "array " << row.name << ": " << row.dispatched
                  << " dispatched (" << fmt(row.share * 100) << "%)\n";
      }
      if (expectArrays > 0 &&
          arrayRows.size() != static_cast<std::size_t>(expectArrays)) {
        std::cerr << "error: expected " << expectArrays
                  << " arrays, daemon reports " << arrayRows.size() << "\n";
        return 1;
      }
    }
    if (starveMs > 0 && slowestMs > starveMs) {
      std::cerr << "error: slowest request took " << fmt(slowestMs)
                << " ms, past the starvation bound " << fmt(starveMs)
                << " ms\n";
      return 1;
    }

    // ---- Chaos migration drill: partition an array under load. -------
    // Queue a burst of distinct async jobs, then partition one target
    // array. Its queued plans must migrate and its in-flight work must
    // re-run or requeue; every burst job must still reach "done".
    // This is the zero-lost-jobs proof.
    std::int64_t drillJobs = 0;
    std::int64_t drillRequeued = 0, drillInvalidated = 0;
    std::size_t drillBurst = 0;
    if (chaos) {
      Connection conn(endpoint, kConnectWait);
      // Plug jobs are big enough to pin every execution slot for tens of
      // milliseconds, so the burst queued behind them is still planned —
      // not yet running — when the partition lands. A unique loose
      // capacity fault per job keeps every digest fresh, so nothing
      // short-circuits via the cache.
      const Grid grid(4, 4);
      const std::string plugTrace =
          traceText(PaperBenchmark::kMatSquare, grid, 32);
      const std::string drillTrace =
          traceText(PaperBenchmark::kMatSquare, grid, smoke ? 16 : 24);
      const auto rebalanceActivity = [&conn]() -> std::int64_t {
        const Json statsReply = ask(conn, R"({"verb":"stats"})");
        const Json* fleet = statsReply.find("fleet");
        const Json* reb =
            fleet != nullptr ? fleet->find("rebalance") : nullptr;
        if (reb == nullptr) return 0;
        return statField(*reb, "requeued") + statField(*reb, "resolved");
      };
      const std::int64_t activityBefore = rebalanceActivity();
      const int burst = std::max(clients * 3, 12);
      // Submit-then-partition races against a fast fleet draining the
      // burst first; fresh digests per attempt let the drill just retry.
      for (int attempt = 0; attempt < 3; ++attempt) {
        // Let the mid-run injector's degradations expire (health
        // re-admission is hysteretic — default cooldown 2 s; match the
        // daemon's --health-cooldown-ms here), so the burst spreads over
        // the whole fleet again instead of piling onto the safe harbor.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(chaosSettleMs));
        // Fan the submissions out over parallel connections: sequential
        // submits would hand the fleet one job per RPC round-trip —
        // frame parsing dominates with these trace sizes — and it would
        // drain each one before the next arrives, leaving nothing
        // queued for the partition to displace.
        const int plugs = std::max(clients * 2, 8);
        const int jobs = plugs + burst;
        std::vector<std::int64_t> submitted(
            static_cast<std::size_t>(jobs), -1);
        std::vector<std::thread> submitters;
        submitters.reserve(static_cast<std::size_t>(jobs));
        for (int b = 0; b < jobs; ++b) {
          submitters.emplace_back([&, b] {
            try {
              Json request = Json::parse(submitLine(
                  b < plugs ? plugTrace : drillTrace, "4x4", "gomcds", 8,
                  0, {"cap:3=" + std::to_string(64 + attempt * 100 + b)}));
              request.set("wait", false);
              if (tenants > 0) {
                request.set("tenant", "t" + std::to_string(b % tenants));
              }
              Connection subConn(endpoint, kConnectWait);
              const Json reply = ask(subConn, request.dump());
              const Json* ok = reply.find("ok");
              const Json* id = reply.find("id");
              // A rejected submit is backpressure, not loss — skip it.
              if (ok != nullptr && ok->isBool() && ok->asBool() &&
                  id != nullptr) {
                submitted[static_cast<std::size_t>(b)] = id->asInt64();
              }
            } catch (const std::exception&) {
              // Dropped submission: nothing to wait for, nothing lost.
            }
          });
        }
        // Give the fan-out a moment to land real work, then partition
        // whichever target currently holds the most planned and running
        // jobs — the array whose work must migrate — while submissions
        // are still in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        std::string target = chaosTargets[0];
        {
          const Json statsReply = ask(conn, R"({"verb":"stats"})");
          const Json* fleet = statsReply.find("fleet");
          const Json* arrays =
              fleet != nullptr ? fleet->find("arrays") : nullptr;
          std::int64_t best = -1;
          if (arrays != nullptr && arrays->isArray()) {
            for (const Json& row : arrays->asArray()) {
              const Json* name = row.find("name");
              if (name == nullptr) continue;
              const auto it = std::find(chaosTargets.begin(),
                                        chaosTargets.end(),
                                        name->asString());
              if (it == chaosTargets.end()) continue;
              const std::int64_t work =
                  statField(row, "planned") + statField(row, "running");
              if (work > best) {
                best = work;
                target = *it;
              }
            }
          }
        }
        // row:1 severs row 0 from rows 2-3 of a 4x4: the array
        // partitions and quarantines instantly, forcing the
        // rebalancer's hand.
        const Json inject = driftRpc(conn, target, {"row:1"});
        drillRequeued += statField(inject, "requeued");
        for (std::thread& t : submitters) t.join();
        std::vector<std::int64_t> ids;
        for (const std::int64_t id : submitted) {
          if (id >= 0) ids.push_back(id);
        }
        drillBurst += ids.size();
        drillInvalidated += statField(inject, "cache_invalidated");
        for (const std::int64_t id : ids) {
          Json wait;
          wait.set("verb", "result").set("id", id).set("wait", true);
          const Json reply = ask(conn, wait.dump());
          const Json* ok = reply.find("ok");
          const Json* state = reply.find("state");
          if (ok == nullptr || !ok->asBool() || state == nullptr ||
              state->asString() != "done") {
            std::cerr << "error: chaos drill lost job " << id << ": "
                      << reply.dump() << "\n";
            return 1;
          }
          ++drillJobs;
        }
        driftRpc(conn, target, {});
        if (rebalanceActivity() > activityBefore) break;
      }
      std::cout << "chaos drill: " << drillJobs << "/" << drillBurst
                << " burst jobs completed across the partition ("
                << drillRequeued << " plans migrated, " << drillInvalidated
                << " cache entries invalidated)\n";
    }

    // ---- Phase 2: identical-job storm (coalescing proof). ------------
    // Every client concurrently submits the SAME job, one the daemon has
    // never seen (a weight nonce keeps the digest unique per run). If
    // coalescing works, cache misses minus coalesced attachments leaves
    // exactly one pipeline run for the whole storm.
    std::int64_t stormCoalesced = 0, stormMisses = 0, stormHits = 0;
    std::int64_t stormRuns = 0;
    if (storm) {
      const Grid grid(4, 4);
      const int stormN = smoke ? 16 : 28;
      ReferenceTrace stormTrace =
          makePaperBenchmark(PaperBenchmark::kMatSquare, grid, stormN);
      // Nonce the trace so re-running the bench against a warm daemon
      // still measures coalescing, not the result cache.
      const Cost nonce = static_cast<Cost>(::getpid() % 97 + 1);
      ReferenceTrace unique(stormTrace.dataSpace());
      for (const Access& ref : stormTrace.accesses()) {
        unique.add(ref.step, ref.proc, ref.data,
                   ref.weight + (ref.step == 0 ? nonce : 0));
      }
      unique.finalize();
      std::ostringstream os;
      saveTrace(unique, os);
      const std::string stormLine = submitLine(
          std::move(os).str(), "4x4", "gomcds",
          static_cast<int>(unique.numSteps()), 0, {});

      Connection statsConn(endpoint, kConnectWait);
      const Json before = ask(statsConn, R"({"verb":"stats"})");

      std::atomic<int> ready{0};
      std::atomic<bool> go{false};
      std::vector<std::string> stormErrors(
          static_cast<std::size_t>(clients));
      std::vector<std::int64_t> stormTotals(
          static_cast<std::size_t>(clients), -1);
      std::vector<std::thread> stormPool;
      stormPool.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        stormPool.emplace_back([&, c] {
          try {
            Connection conn(endpoint, kConnectWait);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
            const Json reply = ask(conn, stormLine);
            const Json* ok = reply.find("ok");
            if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
              throw std::runtime_error("storm submit failed: " +
                                       reply.dump());
            }
            stormTotals[static_cast<std::size_t>(c)] =
                reply.find("total")->asInt64();
          } catch (const std::exception& e) {
            stormErrors[static_cast<std::size_t>(c)] = e.what();
          }
        });
      }
      while (ready.load() < clients) std::this_thread::yield();
      go.store(true, std::memory_order_release);
      for (std::thread& t : stormPool) t.join();

      for (int c = 0; c < clients; ++c) {
        if (!stormErrors[static_cast<std::size_t>(c)].empty()) {
          std::cerr << "error: storm client " << c << ": "
                    << stormErrors[static_cast<std::size_t>(c)] << "\n";
          return 1;
        }
        if (stormTotals[static_cast<std::size_t>(c)] != stormTotals[0]) {
          std::cerr << "error: storm replies disagree on total cost\n";
          return 1;
        }
      }

      const Json after = ask(statsConn, R"({"verb":"stats"})");
      stormCoalesced =
          statField(after, "coalesced") - statField(before, "coalesced");
      stormMisses = statField(after, "cache_misses") -
                    statField(before, "cache_misses");
      stormHits =
          statField(after, "cache_hits") - statField(before, "cache_hits");
      // Every storm submit either coalesced, hit the cache (it landed
      // after the leader finished) or started the one leader run.
      stormRuns = stormMisses - stormCoalesced;
      std::cout << "storm: " << clients << " identical submits -> "
                << stormRuns << " pipeline run(s), " << stormCoalesced
                << " coalesced, " << stormHits << " cache hits\n";
    }

    // ---- Chaos verdict: daemon-side drift and rebalance counters. ----
    std::int64_t driftEvents = 0, rebRequeued = 0, rebResolved = 0,
                 rebInvalidated = 0, rebDrainRequeued = 0, rebStale = 0;
    if (chaos) {
      Connection conn(endpoint, kConnectWait);
      const Json statsReply = ask(conn, R"({"verb":"stats"})");
      const Json* fleet = statsReply.find("fleet");
      const Json* reb =
          fleet != nullptr ? fleet->find("rebalance") : nullptr;
      if (reb == nullptr) {
        std::cerr << "error: daemon reports no fleet rebalance stats\n";
        return 1;
      }
      driftEvents = statField(*reb, "drift_events");
      rebRequeued = statField(*reb, "requeued");
      rebResolved = statField(*reb, "resolved");
      rebInvalidated = statField(*reb, "cache_invalidated");
      rebDrainRequeued = statField(*reb, "drain_requeued");
      rebStale = statField(*reb, "stale_served");
      std::cout << "chaos: " << chaosInjects.load() << " injects, "
                << chaosHeals.load() << " heals -> " << driftEvents
                << " drift events, " << rebRequeued << " plans requeued, "
                << rebResolved << " re-run, " << rebStale
                << " stale served\n";
    }

    // ---- Emit JSON. --------------------------------------------------
    const auto parent = std::filesystem::path(outPath).parent_path();
    std::filesystem::create_directories(parent.empty() ? "." : parent);
    std::ofstream out(outPath);
    if (!out) {
      std::cerr << "error: cannot open " << outPath << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"endpoint\": \""
        << (endpoint.socketPath.empty() ? "tcp" : "unix") << "\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"requests_per_client\": " << requestsPerClient << ",\n"
        << "  \"distinct_jobs\": " << mix.size() << ",\n"
        << "  \"total_requests\": " << total << ",\n"
        << "  \"wall_s\": " << fmt(wallS) << ",\n"
        << "  \"throughput_jobs_per_s\": " << fmt(throughput) << ",\n"
        << "  \"latency_ms\": {\"p50\": " << fmt(p50) << ", \"p95\": "
        << fmt(p95) << ", \"p99\": " << fmt(p99) << ", \"mean\": "
        << fmt(all.empty() ? 0.0 : sum / static_cast<double>(all.size()))
        << ", \"max\": " << fmt(all.empty() ? 0.0 : all.back())
        << "},\n"
        << "  \"cache_hits\": " << cacheHits.load() << ",\n";
    if (!tenantRows.empty()) {
      out << "  \"tenants\": [\n";
      for (std::size_t t = 0; t < tenantRows.size(); ++t) {
        const TenantRow& row = tenantRows[t];
        out << "    {\"name\": \"" << row.name << "\", \"requests\": "
            << row.requests << ", \"latency_ms\": {\"p50\": "
            << fmt(row.p50) << ", \"p95\": " << fmt(row.p95)
            << ", \"p99\": " << fmt(row.p99) << ", \"max\": "
            << fmt(row.max) << "}}"
            << (t + 1 < tenantRows.size() ? "," : "") << "\n";
      }
      out << "  ],\n";
    }
    if (!arrayRows.empty()) {
      out << "  \"array_utilization\": [\n";
      for (std::size_t a = 0; a < arrayRows.size(); ++a) {
        const ArrayRow& row = arrayRows[a];
        out << "    {\"name\": \"" << row.name << "\", \"dispatched\": "
            << row.dispatched << ", \"share\": " << fmt(row.share) << "}"
            << (a + 1 < arrayRows.size() ? "," : "") << "\n";
      }
      out << "  ],\n";
    }
    if (storm) {
      out << "  \"storm\": {\"clients\": " << clients
          << ", \"pipeline_runs\": " << stormRuns << ", \"coalesced\": "
          << stormCoalesced << ", \"cache_hits\": " << stormHits
          << "},\n";
    }
    if (chaos) {
      out << "  \"chaos\": {\"seed\": " << chaosSeed << ", \"injects\": "
          << chaosInjects.load() << ", \"heals\": " << chaosHeals.load()
          << ", \"drill_jobs\": " << drillJobs << ", \"drill_requeued\": "
          << drillRequeued << ", \"drift_events\": " << driftEvents
          << ", \"requeued\": " << rebRequeued << ", \"resolved\": "
          << rebResolved << ", \"cache_invalidated\": " << rebInvalidated
          << ", \"drain_requeued\": " << rebDrainRequeued
          << ", \"stale_served\": " << rebStale
          << ", \"lost_jobs\": 0},\n";
    }
    out << "  \"ok\": true\n}\n";
    std::cout << "wrote " << outPath << "\n";

    if (okReplies.load() != total || throughput <= 0.0) {
      std::cerr << "error: load run incomplete (" << okReplies.load()
                << "/" << total << " ok)\n";
      return 1;
    }
    if (storm && stormRuns != 1) {
      std::cerr << "error: storm expected exactly 1 pipeline run, got "
                << stormRuns << "\n";
      return 1;
    }
    if (chaos) {
      if (chaosInjects.load() == 0 || driftEvents <= 0) {
        std::cerr << "error: chaos run saw no drift (injects "
                  << chaosInjects.load() << ", drift_events "
                  << driftEvents << ")\n";
        return 1;
      }
      if (rebStale != 0) {
        std::cerr << "error: daemon served " << rebStale
                  << " stale result(s) under drift\n";
        return 1;
      }
      if (rebRequeued + rebResolved == 0) {
        std::cerr << "error: chaos run exercised no rebalancing (nothing "
                     "requeued or re-run)\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
