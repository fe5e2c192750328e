#pragma once

// Shared plumbing of the pimbench binary: options, the per-run record every
// workload fills, the span log of the traced replay, and small statistics
// helpers. Workloads live in batch.cpp, serve.cpp and stream.cpp; main.cpp
// parses the command line and prints the result.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace_io.hpp"

namespace pimbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: every input the program under test receives is drawn from
/// one of these, seeded from --seed (or from a fixed constant for the
/// seed-independent warm-up and templates).
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int below(int bound) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(bound));
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-test; the JSON shape is unchanged.
  bool smoke = false;
  /// Corrupt one schedule or reply on purpose (self-test of the checks).
  bool corrupt = false;
  std::string daemonPath;  ///< pimsched_served binary (serve-mixed)
  std::string socketPath;  ///< Unix socket for the daemon (serve-mixed)
  /// The first set-up repetition is timed from here, so process loading
  /// and static initialisation count as set-up too.
  Clock::time_point processStart{};
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run measures. Workloads fill the counts, the op
/// latencies, the set-up repetitions and (traced runs) the per-layer
/// metrics; main.cpp turns them into the end-to-end metrics.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  pimsched::DigestBuilder digest;     ///< every schedule produced, in order
  std::int64_t commCost = 0;          ///< summed serve+move cost
  std::vector<double> setupS;         ///< one entry per set-up repetition
  std::vector<double> latencyMs;      ///< one entry per completed op
  double timedWallS = 0;              ///< wall time of the timed phase
  double peakRssMb = 0;               ///< VmHWM of the scheduling process
  std::vector<Metric> perLayer;       ///< traced runs only
  /// Facts recorded beside the metrics (JSON-encoded values).
  std::vector<std::pair<std::string, std::string>> notes;

  void fail(const std::string& why);
  void foldSchedule(const pimsched::Digest& d) {
    digest.u64(d.hi);
    digest.u64(d.lo);
  }
  void note(std::string key, std::string jsonValue) {
    notes.emplace_back(std::move(key), std::move(jsonValue));
  }
  void layer(std::string name, double value, std::string unit) {
    perLayer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// A span of the traced replay: name, start, end and the span that caused
/// it (-1 for a top-level span). Spans of one op share its id.
struct Span {
  const char* name;
  int op;
  int parent;
  std::int64_t startNs;
  std::int64_t endNs;
};

/// In-memory span log; nothing is written until the run ends.
class SpanLog {
 public:
  int open(const char* name, int op, int parent = -1);
  void close(int id);
  /// Times fn() as one span.
  template <class Fn>
  decltype(auto) time(const char* name, int op, int parent, Fn&& fn) {
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->close(id); }
    } closer{this, open(name, op, parent)};
    return fn();
  }
  /// Milliseconds per op summed over every span named `name`, in op order;
  /// ops without such a span are skipped.
  [[nodiscard]] std::vector<double> perOpMs(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Lower median (always a measured value); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// VmHWM of a process in MB (pid 0 = this process); 0 when unreadable.
[[nodiscard]] double peakRssMb(long pid);

/// Summed deltas of obs registry counters over the calls bracketed by
/// start() / stop().
class CounterDeltas {
 public:
  explicit CounterDeltas(std::vector<std::string> names);
  void start();
  void stop();
  /// The summed delta of `name`, one of the constructor's names.
  [[nodiscard]] double operator[](std::string_view name) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::int64_t> before_;
  std::vector<std::int64_t> sum_;
};
/// A JSON string literal of `s` (no escaping; callers pass plain text).
[[nodiscard]] inline std::string quoted(const std::string& s) {
  return std::string(1, '"').append(s).append(1, '"');
}
/// "RxC", the protocol's grid spelling.
[[nodiscard]] inline std::string gridName(int rows, int cols) {
  return std::to_string(rows).append(1, 'x').append(std::to_string(cols));
}
/// Ratio a / b, 0 when b is 0.
[[nodiscard]] inline double ratio(double a, double b) {
  return b == 0 ? 0.0 : a / b;
}

/// Batch workloads: paper kernels on a healthy or a faulted mesh.
void runBatch(const Options& opts, bool faulted, RunResult& out);
/// serve-mixed: a live daemon over its Unix socket.
void runServe(const Options& opts, RunResult& out);
/// stream-churn: an in-process StreamSession.
void runStream(const Options& opts, RunResult& out);

}  // namespace pimbench
