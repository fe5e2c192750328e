// pimbench — the repository's performance benchmark binary.
//
//   pimbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--corrupt] [--daemon PATH] [--socket PATH]
//
// Workloads: batch-paper, batch-faulted, serve-mixed, stream-churn. Each
// runs a fixed list of operations generated from --seed, sized from
// --seconds. The last stdout line is one JSON object holding the run's
// counts, schedule digest, host fingerprint and its end-to-end metrics
// (plus, with --trace 1, the per-layer metrics of a traced replay of the
// same ops). pimbench/run.py builds this binary and wraps its output in
// the benchmark's result line. Exit status: 0 when every op succeeded and
// every output check passed, 1 otherwise, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "obs/obs.hpp"

#ifndef PIMBENCH_BUILD_TYPE
#define PIMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pimbench;

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printMetrics(std::ostream& os, const std::vector<Metric>& metrics) {
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}";
}

int usage(const char* why) {
  std::cerr << "error: " << why
            << "\nusage: pimbench --workload batch-paper|batch-faulted|"
               "serve-mixed|stream-churn --seed N --seconds S --trace 0|1 "
               "[--smoke] [--corrupt] [--daemon PATH] [--socket PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point processStart = Clock::now();
  Options opts;
  opts.processStart = processStart;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--workload" && hasValue) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && hasValue) {
      opts.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && hasValue) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--daemon" && hasValue) {
      opts.daemonPath = argv[++i];
    } else if (arg == "--socket" && hasValue) {
      opts.socketPath = argv[++i];
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--corrupt") {
      opts.corrupt = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.seconds < 1 || opts.seconds > 600) {
    return usage("--seconds must be in [1, 600]");
  }

  RunResult run;
  try {
    if (opts.workload == "batch-paper") {
      runBatch(opts, /*faulted=*/false, run);
    } else if (opts.workload == "batch-faulted") {
      runBatch(opts, /*faulted=*/true, run);
    } else if (opts.workload == "serve-mixed") {
      if (opts.daemonPath.empty() || opts.socketPath.empty()) {
        return usage("serve-mixed needs --daemon and --socket");
      }
      runServe(opts, run);
    } else if (opts.workload == "stream-churn") {
      runStream(opts, run);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << opts.workload << ": " << e.what() << "\n";
    return 1;
  }
  const double completed = static_cast<double>(run.latencyMs.size());
  const std::vector<Metric> endToEnd = {
      {"setup_s", median(run.setupS), "s"},
      {"throughput_ops_s", ratio(completed, run.timedWallS), "1/s"},
      {"latency_p50_ms", median(run.latencyMs), "ms"},
      {"latency_p99_ms", percentile(run.latencyMs, 99), "ms"},
      {"peak_rss_mb", run.peakRssMb, "MB"},
      {"comm_cost", static_cast<double>(run.commCost), "cost"},
  };
  const auto n = static_cast<std::int64_t>(run.latencyMs.size());
  const std::int64_t beyondP99 =
      n - static_cast<std::int64_t>(std::ceil(0.99 * static_cast<double>(n)));

  std::ostringstream os;
  os << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
     << ", \"seconds\": " << opts.seconds
     << ", \"trace\": " << (opts.trace ? 1 : 0)
     << ", \"smoke\": " << (opts.smoke ? "true" : "false")
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"digest\": \"" << run.digest.digest().hex() << "\""
     << ", \"samples\": " << n << ", \"samples_beyond_p99\": " << beyondP99
     << ", \"setup_repeats\": " << run.setupS.size()
     << ", \"host\": {\"nproc\": "
     << std::max(1u, std::thread::hardware_concurrency())
     << ", \"simd_tier\": \""
     << pimsched::simd::tierName(pimsched::simd::activeTier())
     << "\", \"build_type\": \"" << PIMBENCH_BUILD_TYPE << "\"}"
     << ", \"failures\": [";
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\""
       << pimsched::obs::jsonEscape(run.failures[i]) << "\"";
  }
  os << "], \"notes\": {";
  for (std::size_t i = 0; i < run.notes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << run.notes[i].first
       << "\": " << run.notes[i].second;
  }
  os << "}, \"end_to_end\": ";
  printMetrics(os, endToEnd);
  os << ", \"per_layer\": ";
  printMetrics(os, run.perLayer);
  os << "}";
  std::cout << os.str() << std::endl;
  return run.failed == 0 && run.attempted > 0 ? 0 : 1;
}
