// pimsched_served — the persistent scheduling daemon. Wraps one job
// engine (fleet::FleetService: tenant-aware priority queues, in-flight
// coalescing and a content-addressed LRU result cache over the shared
// thread pool) behind the NDJSON protocol on a Unix socket and/or a TCP
// listener, so repeated schedule requests reuse warm state instead of
// paying a full pimsched_cli process start per trace. Without --fleet the
// engine serves one healthy array that hosts any grid shape. See
// docs/serving.md.
//
//   pimsched_served [--socket PATH] [--tcp [HOST:]PORT] [options]
//     --socket PATH       Unix socket to listen on
//     --tcp [HOST:]PORT   TCP endpoint (default host 127.0.0.1; port 0
//                         binds an ephemeral port, printed on startup)
//     --io-threads N      connection-handler pool size (default 8)
//     --queue N           queued-job bound of the whole daemon;
//                         submissions past it are rejected with a reason
//                                                  (default 256)
//     --concurrency N     jobs run at once per array (default 8 without
//                         --fleet, 1 per array with it)
//     --cache-entries N   result-cache entries (default 4096 without
//                         --fleet, 1024 with it)
//     --no-cache          disable the result cache (--cache-entries 0)
//     --max-frame BYTES   per-request frame size bound (default 4 MiB)
//     --no-trace-files    reject trace_file submissions (inline only)
//     --tenant-weight T=W fair-share weight of tenant T (repeatable;
//                         unlisted tenants get weight 1)
//     --tenant-quota N    queued jobs allowed per tenant (default: the
//                         --queue bound without --fleet, 64 with it)
//     --aging-ms MS       one priority level gained per MS queued
//                         (default 1000; 0 disables aging)
//     --aging-limit N     aging boost cap in levels        (default 8)
//     --drain-threshold N batch jobs start while the serve backlog is
//                         <= N                             (default 0)
//
// Fleet mode serves a set of named PIM arrays — see docs/fleet.md:
//     --fleet SPEC        fleet topology: ';'-separated
//                         [NAME=]RxC[:FAULT[+FAULT...]] entries
//     --fleet-policy P    array selector: cost | roundrobin | leastloaded
//                         (default cost)
//     --health-cooldown-ms MS
//                         a quarantined array is re-admitted only after
//                         MS of quiet with acceptable facts (default
//                         2000; hysteresis against flapping arrays)
//     --no-fault-inject   reject the fault-inject / heal admin verbs
// Live fault drift: the fault-inject and heal verbs change a fleet
// array's fault state at runtime; the fleet migrates queued work, re-runs
// every in-flight job under the array's live faults and invalidates stale
// cache entries — see docs/fault-tolerance.md. Without --fleet they answer ok:false.
//
// At least one of --socket / --tcp is required; both may be given, and
// the two endpoints serve the same engine (a job submitted over TCP is
// cache-hit and coalesce-visible to Unix-socket clients and vice versa).
//
// SIGTERM / SIGINT (or a client `shutdown` verb) drain gracefully: every
// accepted job finishes, waiting clients get their replies, and the
// daemon exits 0. Exit code 1 on runtime failure, 2 on bad usage.

#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include "fleet/fleet_service.hpp"
#include "serve/server.hpp"

namespace {

pimsched::serve::SocketServer* gServer = nullptr;

void onSignal(int) {
  if (gServer != nullptr) gServer->requestStop();  // one atomic store
}

void printUsage(std::ostream& os) {
  os << "usage: pimsched_served [--socket PATH] [--tcp [HOST:]PORT]\n"
        "       [--io-threads N] [--queue N] [--concurrency N]\n"
        "       [--cache-entries N] [--no-cache] [--max-frame BYTES] "
        "[--no-trace-files]\n"
        "       [--fleet SPEC] [--fleet-policy cost|roundrobin|leastloaded]\n"
        "       [--tenant-weight T=W]... [--tenant-quota N] [--aging-ms MS]\n"
        "       [--aging-limit N] [--drain-threshold N]\n"
        "       [--health-cooldown-ms MS] [--no-fault-inject]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimsched::serve;
  using pimsched::fleet::FleetService;

  FleetService::Config config;
  std::string fleetSpec;
  bool concurrencyGiven = false;
  bool cacheEntriesGiven = false;
  bool tenantQuotaGiven = false;
  SocketServer::Options serverOptions;
  std::string parseError;

  for (int i = 1; i < argc && parseError.empty(); ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        parseError = "missing value for " + arg;
        return "";
      }
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        serverOptions.socketPath = value();
      } else if (arg == "--tcp") {
        const std::string endpoint = value();
        const auto colon = endpoint.rfind(':');
        if (colon == std::string::npos) {
          serverOptions.tcpPort = std::stoi(endpoint);
        } else {
          serverOptions.tcpBindAddress = endpoint.substr(0, colon);
          serverOptions.tcpPort = std::stoi(endpoint.substr(colon + 1));
        }
        if (serverOptions.tcpPort < 0 || serverOptions.tcpPort > 65535) {
          parseError = "TCP port out of range";
        }
      } else if (arg == "--io-threads") {
        serverOptions.ioThreads =
            static_cast<unsigned>(std::stoul(value()));
      } else if (arg == "--queue") {
        config.maxQueueDepth = std::stoul(value());
      } else if (arg == "--concurrency") {
        config.concurrencyPerArray =
            static_cast<unsigned>(std::stoul(value()));
        concurrencyGiven = true;
      } else if (arg == "--cache-entries") {
        config.maxCacheEntries = std::stoul(value());
        cacheEntriesGiven = true;
      } else if (arg == "--no-cache") {
        config.maxCacheEntries = 0;
        cacheEntriesGiven = true;
      } else if (arg == "--fleet") {
        fleetSpec = value();
      } else if (arg == "--fleet-policy") {
        const std::string name = value();
        const auto policy = pimsched::fleet::fleetPolicyFromString(name);
        if (policy.has_value()) {
          config.policy = *policy;
        } else {
          parseError = "unknown fleet policy '" + name + "'";
        }
      } else if (arg == "--tenant-weight") {
        const std::string pair = value();
        const std::size_t eq = pair.rfind('=');
        double weight = 0;
        if (eq != std::string::npos && eq > 0) {
          weight = std::stod(pair.substr(eq + 1));
        }
        if (weight > 0) {
          config.tenantWeights[pair.substr(0, eq)] = weight;
        } else {
          parseError = "--tenant-weight expects NAME=W with W > 0";
        }
      } else if (arg == "--tenant-quota") {
        config.tenantQueueDepth = std::stoul(value());
        tenantQuotaGiven = true;
      } else if (arg == "--aging-ms") {
        config.agingMs = std::stoll(value());
      } else if (arg == "--aging-limit") {
        config.agingLimit = std::stoi(value());
      } else if (arg == "--drain-threshold") {
        config.drainThreshold = std::stoul(value());
      } else if (arg == "--health-cooldown-ms") {
        config.health.cooldownNs = std::stoll(value()) * 1'000'000;
      } else if (arg == "--max-frame") {
        serverOptions.protocol.maxFrameBytes = std::stoul(value());
      } else if (arg == "--no-trace-files") {
        serverOptions.protocol.allowTraceFiles = false;
      } else if (arg == "--no-fault-inject") {
        serverOptions.protocol.allowFaultInject = false;
      } else {
        parseError = "unknown option " + arg;
      }
    } catch (const std::exception&) {
      parseError = "invalid value for " + arg;
    }
  }
  if (parseError.empty() && serverOptions.socketPath.empty() &&
      serverOptions.tcpPort < 0) {
    parseError = "need at least one of --socket PATH / --tcp PORT";
  }
  if (!parseError.empty()) {
    std::cerr << "error: " << parseError << "\n\n";
    printUsage(std::cerr);
    return 2;
  }

  try {
    if (fleetSpec.empty()) {
      // One array runs everything: its slots, cache and queue are the
      // whole daemon's, and the default tenant may fill the whole queue.
      if (!concurrencyGiven) config.concurrencyPerArray = 8;
      if (!cacheEntriesGiven) config.maxCacheEntries = 4096;
      if (!tenantQuotaGiven) config.tenantQueueDepth = config.maxQueueDepth;
    } else {
      config.arrays = pimsched::fleet::parseFleetSpec(fleetSpec);
    }
    FleetService service(config);
    SocketServer server(service, serverOptions);
    server.start();

    gServer = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    std::cout << "pimsched_served listening on";
    if (!server.socketPath().empty()) {
      std::cout << " " << server.socketPath();
    }
    if (server.tcpPort() >= 0) {
      std::cout << (server.socketPath().empty() ? " " : " and ")
                << "tcp:" << serverOptions.tcpBindAddress << ":"
                << server.tcpPort();
    }
    if (fleetSpec.empty()) {
      std::cout << " (one any-shape array, queue " << config.maxQueueDepth
                << ", concurrency " << config.concurrencyPerArray
                << ", cache "
                << (config.maxCacheEntries > 0
                        ? std::to_string(config.maxCacheEntries) + " entries"
                        : std::string("off"))
                << ")" << std::endl;
    } else {
      std::cout << " (fleet of " << service.fleet().size()
                << " arrays, policy "
                << pimsched::fleet::toString(service.policy()) << ")"
                << std::endl;
    }
    const int rc = server.run();
    gServer = nullptr;
    std::cout << "pimsched_served drained, exiting" << std::endl;
    return rc;
  } catch (const std::exception& e) {
    gServer = nullptr;
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
