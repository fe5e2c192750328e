// serve-mixed: a live pimsched_served with its default configuration,
// reached over its Unix socket by a closed loop of four persistent
// connections (callers that block on their schedule). Jobs are small and
// distinct: 4x4 or 8x8 grids, paper kernels at n = 8..24, four methods,
// priorities 0..2, about one in eight on a faulted mesh. About one in four
// submissions repeats a recent job (cache reads), and every round ends in
// a burst of one identical job sent from all four connections at once
// (coalescing). One op = one submit-and-wait request.

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "core/verify.hpp"
#include "fault/fault_trace.hpp"
#include "kernels/benchmarks.hpp"
#include "serve/json.hpp"
#include "trace/perturb.hpp"
#include "trace/trace_io.hpp"

extern char** environ;

namespace pimbench {
namespace {

using namespace pimsched;
using serve::Json;

constexpr std::uint64_t kWarmupSeed = 0x5EED5E4FEULL;
constexpr int kSetupRepeats = 5;
constexpr int kConnections = 4;
constexpr int kRoundOps = 16;      ///< regular ops per connection per round
constexpr int kRoundsPer10s = 40;  ///< 40 rounds = 12 decks of new jobs
constexpr int kRecent = 16;        ///< repeats re-send one of the last 16 jobs
constexpr int kFaultedEvery = 8;   ///< every 8th new job runs on a faulted mesh
constexpr int kWarmupJobs = 48;
constexpr int kRecomputed = 24;    ///< replies recomputed in-process
constexpr int kTimeoutMs = 60000;  ///< per reply, and for the ready banner
constexpr int kWindows = 8;

const char* const kMethods[] = {"gomcds", "lomcds", "scds", "groupedgomcds"};
const int kGridSides[] = {4, 8};
const int kSizes[] = {8, 12, 16, 20};
constexpr int kBurstSize = 12;  ///< bursts: a 4x4 GOMCDS job at this n

struct Job {
  int kernel;  ///< index into allPaperBenchmarks()
  int gridSide;
  int n;
  const char* method;
  int priority = 0;
  std::vector<std::string> faults;
  std::uint64_t perturbSeed = 0;
};

/// Unperturbed kernel traces per (kernel, grid side, n); seed-independent.
class Templates {
 public:
  explicit Templates(bool smoke) {
    for (const int side : kGridSides) grids_.emplace(side, Grid(side, side));
    for (std::size_t k = 0; k < allPaperBenchmarks().size(); ++k) {
      for (const int side : kGridSides) {
        for (const int n : kSizes) {
          if (smoke && n > 8 && n != kBurstSize) continue;
          traces_.emplace(std::make_tuple(static_cast<int>(k), side, n),
                          makePaperBenchmark(allPaperBenchmarks()[k],
                                             grids_.at(side), n));
        }
      }
    }
  }
  [[nodiscard]] const Grid& grid(int side) const { return grids_.at(side); }
  [[nodiscard]] ReferenceTrace input(const Job& j) const {
    return perturbTrace(traces_.at({j.kernel, j.gridSide, j.n}),
                        grid(j.gridSide), 0.1, j.perturbSeed);
  }

 private:
  std::map<int, Grid> grids_;
  std::map<std::tuple<int, int, int>, ReferenceTrace> traces_;
};

/// One dead processor plus one dead directed link, redrawn until the
/// alive mesh stays strongly connected.
std::vector<std::string> drawFaults(Rng& rng, int side) {
  const Grid grid(side, side);
  for (;;) {
    const ProcId dead = rng.below(grid.size());
    const ProcId from = rng.below(grid.size());
    const std::vector<ProcId> next = grid.neighbors(from);
    const ProcId to = next[static_cast<std::size_t>(
        rng.below(static_cast<int>(next.size())))];
    if (from == dead || to == dead) continue;
    FaultMap faults(grid);
    faults.killProc(dead);
    faults.killLink(from, to);
    if (DistanceMap(grid, faults).partitioned()) continue;
    return {"proc:" + std::to_string(dead),
            "link:" + std::to_string(from) + "-" + std::to_string(to)};
  }
}

/// New jobs come from a stream of shuffled decks, each holding every
/// (kernel, grid, size, method) class once, so every run submits the same
/// class mix whatever the seed; the seed picks the order, perturbations,
/// priorities and fault positions.
class JobStream {
 public:
  JobStream(std::uint64_t seed, bool smoke) : rng_(seed), smoke_(smoke) {}

  Job next() {
    if (deck_.empty()) refill();
    Job j = deck_.back();
    deck_.pop_back();
    j.priority = rng_.below(3);
    if (++drawn_ % kFaultedEvery == 0) {
      j.faults = drawFaults(rng_, j.gridSide);
      // Grouped GOMCDS is not fault-aware: it places data on dead
      // processors, and the daemon refuses such schedules (error_kind
      // "unreachable"). Faulted jobs use the fault-aware methods only.
      if (std::strcmp(j.method, "groupedgomcds") == 0) j.method = "gomcds";
    }
    j.perturbSeed = rng_.next();
    return j;
  }
  /// The identical job every connection sends at once: a small healthy
  /// GOMCDS job cycling through the kernels.
  Job burst(int index) {
    return {index % 5, 4, smoke_ ? 8 : kBurstSize, "gomcds", 1, {},
            rng_.next()};
  }
  Rng& rng() { return rng_; }

 private:
  void refill() {
    for (int k = 0; k < 5; ++k) {
      for (const int side : kGridSides) {
        for (const int n : kSizes) {
          for (const char* m : kMethods) {
            deck_.push_back({k, side, smoke_ ? 8 : n, m, 0, {}, 0});
          }
        }
      }
    }
    for (std::size_t i = deck_.size(); i > 1; --i) {
      std::swap(deck_[i - 1], deck_[static_cast<std::size_t>(
                                  rng_.below(static_cast<int>(i)))]);
    }
  }

  Rng rng_;
  bool smoke_;
  std::vector<Job> deck_;
  int drawn_ = 0;
};

std::string requestLine(const Templates& t, const Job& j) {
  std::ostringstream trace;
  saveTrace(t.input(j), trace);
  Json req;
  req.set("verb", "submit")
      .set("trace", trace.str())
      .set("grid", gridName(j.gridSide, j.gridSide))
      .set("method", j.method)
      .set("windows", kWindows)
      .set("priority", j.priority)
      .set("wait", true)
      .set("schedule", true);
  if (!j.faults.empty()) {
    Json::Array faults;
    for (const std::string& f : j.faults) faults.emplace_back(f);
    req.set("faults", Json(std::move(faults)));
  }
  return req.dump() + "\n";
}

/// The op list: per connection, rounds of kRoundOps regular ops followed
/// by one burst op that every connection sends at once. A quarter of the
/// regular slots (a diagonal, so every connection gets its share) repeat
/// one of the last kRecent new jobs. Ops index `jobs`.
struct Plan {
  std::vector<Job> jobs;                   ///< distinct jobs
  std::vector<std::vector<int>> perConn;   ///< job index per op
  std::vector<std::vector<char>> isBurst;  ///< parallel to perConn
};

Plan makePlan(std::uint64_t seed, int rounds, bool smoke) {
  Plan p;
  p.perConn.resize(kConnections);
  p.isBurst.resize(kConnections);
  JobStream stream(seed, smoke);
  for (int r = 0; r < rounds; ++r) {
    for (int k = 0; k < kRoundOps; ++k) {
      for (int c = 0; c < kConnections; ++c) {
        int job;
        if ((k + c) % 4 == 3 && !p.jobs.empty()) {
          const int recent =
              std::min<int>(kRecent, static_cast<int>(p.jobs.size()));
          job = static_cast<int>(p.jobs.size()) - 1 -
                stream.rng().below(recent);
        } else {
          p.jobs.push_back(stream.next());
          job = static_cast<int>(p.jobs.size()) - 1;
        }
        p.perConn[static_cast<std::size_t>(c)].push_back(job);
        p.isBurst[static_cast<std::size_t>(c)].push_back(0);
      }
    }
    p.jobs.push_back(stream.burst(r));
    for (int c = 0; c < kConnections; ++c) {
      p.perConn[static_cast<std::size_t>(c)].push_back(
          static_cast<int>(p.jobs.size()) - 1);
      p.isBurst[static_cast<std::size_t>(c)].push_back(1);
    }
  }
  return p;
}

/// A pimsched_served child process with its stdout on a pipe. start()
/// blocks on the ready banner; stop() reads VmHWM, sends SIGTERM and
/// requires the drain to exit 0.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket) {
    ::unlink(socket.c_str());
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    // The default configuration, except for a result cache small enough
    // that a run's distinct jobs overflow it and LRU eviction runs (the
    // default 4 shards x 1024 entries exceeds what a run submits).
    std::vector<std::string> args = {binary, "--socket", socket,
                                     "--cache-entries", "256"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      ::close(out_);
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
    const std::string banner = "pimsched_served listening on";
    std::string line;
    while (line.rfind(banner, 0) != 0) {
      if (!readLine(line)) {
        terminate();
        throw std::runtime_error("daemon exited before its ready banner");
      }
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) terminate();
  }

  [[nodiscard]] long pid() const { return pid_; }

  /// SIGTERM, drain, reap; returns the exit status (-1 unless a clean exit).
  int stop() {
    ::kill(pid_, SIGTERM);
    std::string line;
    while (readLine(line)) {
    }
    return reap();
  }

 private:
  bool readLine(std::string& line) {
    line.clear();
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, kTimeoutMs) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  int reap() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::close(out_);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  void terminate() {
    ::kill(pid_, SIGKILL);
    (void)reap();
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::string buffer_;
};

/// One persistent NDJSON connection.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("cannot open a socket for " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { ::close(fd_); }

  /// Sends one request line and reads one reply line; nullopt on a
  /// transport error or after kTimeoutMs without a reply.
  std::optional<std::string> call(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, kTimeoutMs) <= 0) return std::nullopt;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// What one op's reply said.
struct Reply {
  bool ok = false;
  std::string error;
  double latencyMs = 0;
  Cost total = 0;
  Digest digest;  ///< of the returned schedule (its "# digest" line)
  double waitMs = 0;
  double runMs = 0;
};

Reply parseReply(const std::optional<std::string>& text) {
  Reply r;
  if (!text) {
    r.error = "no reply (transport error or timeout)";
    return r;
  }
  try {
    const Json j = Json::parse(*text);
    const Json* ok = j.find("ok");
    const Json* state = j.find("state");
    if (ok == nullptr || !ok->asBool() || state == nullptr ||
        state->asString() != "done") {
      r.error = "error reply: " + text->substr(0, 200);
      return r;
    }
    r.total = j.find("total")->asInt64();
    r.waitMs = static_cast<double>(j.find("wait_ns")->asInt64()) / 1e6;
    r.runMs = static_cast<double>(j.find("run_ns")->asInt64()) / 1e6;
    const std::string& schedule = j.find("schedule")->asString();
    const std::string tag = "# digest ";
    const std::size_t at = schedule.find(tag);
    const std::optional<Digest> d =
        at == std::string::npos
            ? std::nullopt
            : Digest::fromHex(schedule.substr(at + tag.size(), 32));
    if (!d) {
      r.error = "reply schedule has no digest line";
      return r;
    }
    r.digest = *d;
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = std::string("malformed reply: ") + e.what();
  }
  return r;
}

/// Deltas of the daemon's own counters, from the `stats` verb.
struct Stats {
  std::int64_t hits = 0, misses = 0, coalesced = 0, rejected = 0;
};

Stats stats(Connection& conn) {
  const std::optional<std::string> reply = conn.call("{\"verb\":\"stats\"}\n");
  if (!reply) throw std::runtime_error("stats verb failed");
  const Json j = Json::parse(*reply);
  return {j.find("cache_hits")->asInt64(), j.find("cache_misses")->asInt64(),
          j.find("coalesced")->asInt64(), j.find("rejected")->asInt64()};
}

/// Runs every op of the plan over kConnections connections; replies are
/// returned per connection, in op order. Returns the phase's wall seconds.
double runPlan(const Plan& plan, const Templates& t, const std::string& socket,
               std::vector<std::vector<Reply>>& replies) {
  replies.assign(kConnections, {});
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(socket));
  }
  std::barrier sync(kConnections);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      const auto& ops = plan.perConn[static_cast<std::size_t>(c)];
      auto& out = replies[static_cast<std::size_t>(c)];
      out.reserve(ops.size());
      try {
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const std::string line =
              requestLine(t, plan.jobs[static_cast<std::size_t>(ops[i])]);
          if (plan.isBurst[static_cast<std::size_t>(c)][i] != 0) {
            sync.arrive_and_wait();
          }
          const Clock::time_point t0 = Clock::now();
          const std::optional<std::string> text =
              conns[static_cast<std::size_t>(c)]->call(line);
          const Clock::time_point t1 = Clock::now();
          out.push_back(parseReply(text));
          out.back().latencyMs = msBetween(t0, t1);
        }
      } catch (const std::exception& e) {
        // The ops left without a reply count as failed; leave the burst
        // barrier so the other connections do not wait for this one.
        Reply r;
        r.error = std::string("client error: ") + e.what();
        out.resize(ops.size(), r);
        sync.arrive_and_drop();
      }
    });
  }
  for (std::thread& th : clients) th.join();
  return msBetween(start, Clock::now()) / 1e3;
}

/// Spawns the daemon and runs the fixed warm-up on one connection.
std::unique_ptr<Daemon> startDaemon(const Options& opts, const Templates& t) {
  auto daemon = std::make_unique<Daemon>(opts.daemonPath, opts.socketPath);
  Connection conn(opts.socketPath);
  JobStream warm(kWarmupSeed, opts.smoke);
  for (int i = 0; i < kWarmupJobs; ++i) {
    const Reply r = parseReply(conn.call(requestLine(t, warm.next())));
    if (!r.ok) throw std::runtime_error("warm-up: " + r.error);
  }
  return daemon;
}

void stopDaemon(std::unique_ptr<Daemon>& daemon) {
  const int rc = daemon->stop();
  daemon.reset();
  if (rc != 0) {
    throw std::runtime_error("daemon drain exited with status " +
                             std::to_string(rc));
  }
}

/// The Experiment the daemon builds for a job's request (the protocol's
/// defaults: paper capacity, one thread). `trace` must outlive it.
std::unique_ptr<Experiment> experimentFor(const Templates& t, const Job& j,
                                          const ReferenceTrace& trace) {
  const Grid& grid = t.grid(j.gridSide);
  PipelineConfig cfg;
  cfg.numWindows = kWindows;
  if (j.faults.empty()) return std::make_unique<Experiment>(trace, grid, cfg);
  FaultMap faults(grid);
  for (const std::string& spec : j.faults) (void)applyFaultSpec(faults, spec);
  return std::make_unique<Experiment>(trace, grid, faults, cfg);
}

/// In-process cold recomputation of one job, as the daemon runs it.
Reply recompute(const Templates& t, const Job& j) {
  const ReferenceTrace trace = t.input(j);
  const auto exp = experimentFor(t, j, trace);
  const DataSchedule s = exp->schedule(*methodFromString(j.method));
  Reply r;
  r.ok = true;
  r.digest = scheduleDigest(s);
  r.total = evaluateSchedule(s, exp->refs(), exp->costModel()).aggregate.total();
  return r;
}

}  // namespace

void runServe(const Options& opts, RunResult& out) {
  const int rounds =
      opts.smoke ? 2 : std::max(1, opts.seconds * kRoundsPer10s / 10);
  std::unique_ptr<Templates> templates;
  std::unique_ptr<Daemon> daemon;
  Plan plan;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon) stopDaemon(daemon);  // the previous repetition's
    const Clock::time_point t0 = rep == 0 ? opts.processStart : Clock::now();
    templates = std::make_unique<Templates>(opts.smoke);
    plan = makePlan(opts.seed, rounds, opts.smoke);
    daemon = startDaemon(opts, *templates);
    out.setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
  }

  Connection admin(opts.socketPath);
  const Stats before = stats(admin);
  std::vector<std::vector<Reply>> replies;
  out.timedWallS = runPlan(plan, *templates, opts.socketPath, replies);
  const Stats after = stats(admin);
  out.peakRssMb = peakRssMb(daemon->pid());
  stopDaemon(daemon);

  // Fold in a fixed op order (connection-major) so the digest does not
  // depend on which connection finished first.
  std::vector<std::pair<const Job*, const Reply*>> done;
  for (int c = 0; c < kConnections; ++c) {
    const auto& ops = plan.perConn[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Reply& r = replies[static_cast<std::size_t>(c)][i];
      ++out.attempted;
      if (!r.ok) {
        out.fail(r.error);
        continue;
      }
      out.latencyMs.push_back(r.latencyMs);
      out.commCost += r.total;
      out.foldSchedule(r.digest);
      done.emplace_back(&plan.jobs[static_cast<std::size_t>(ops[i])], &r);
    }
  }
  // A seeded sample of replies, recomputed cold in-process.
  Rng pick(opts.seed ^ 0x5A3B1EULL);
  for (int i = 0; i < kRecomputed && !done.empty(); ++i) {
    const auto& [job, reply] =
        done[static_cast<std::size_t>(pick.below(static_cast<int>(done.size())))];
    const Reply cold = recompute(*templates, *job);
    const Cost replied = reply->total + (opts.corrupt && i == 0 ? 1 : 0);
    if (cold.digest != reply->digest || cold.total != replied) {
      out.fail("reply differs from an in-process cold solve (" +
               std::string(job->method) + ", n=" + std::to_string(job->n) + ")");
    }
  }
  out.note("connections", std::to_string(kConnections));
  out.note("distinct_jobs", std::to_string(plan.jobs.size()));
  out.note("cache_hits", std::to_string(after.hits - before.hits));
  out.note("cache_misses", std::to_string(after.misses - before.misses));
  out.note("coalesced", std::to_string(after.coalesced - before.coalesced));
  out.note("recomputed", std::to_string(kRecomputed));
  if (!opts.trace) return;

  // Traced replay: the same plan against a fresh daemon (same warm-up),
  // then in-process replays of the library calls a request makes, on a
  // seeded sample of distinct jobs.
  daemon = startDaemon(opts, *templates);
  Connection admin2(opts.socketPath);
  const Stats tb = stats(admin2);
  std::vector<std::vector<Reply>> traced;
  (void)runPlan(plan, *templates, opts.socketPath, traced);
  const Stats ta = stats(admin2);
  stopDaemon(daemon);

  std::vector<double> latency, wait, run, transport, serverSide;
  for (const auto& conn : traced) {
    for (const Reply& r : conn) {
      if (!r.ok) {
        out.fail("traced replay: " + r.error);
        continue;
      }
      latency.push_back(r.latencyMs);
      wait.push_back(r.waitMs);
      run.push_back(r.runMs);
      transport.push_back(r.latencyMs - r.waitMs - r.runMs);
      serverSide.push_back(r.waitMs + r.runMs);
    }
  }
  SpanLog log;
  Rng pick2(opts.seed ^ 0x7ACEDULL);
  const int replays = opts.smoke ? 4 : 128;
  for (int op = 0; op < replays; ++op) {
    const Job& j = plan.jobs[static_cast<std::size_t>(
        pick2.below(static_cast<int>(plan.jobs.size())))];
    std::ostringstream text;
    saveTrace(templates->input(j), text);
    const std::string body = text.str();
    const ReferenceTrace trace = log.time("parse", op, -1, [&] {
      std::istringstream is(body);
      return loadTrace(is);
    });
    const auto exp = log.time("construct", op, -1,
                              [&] { return experimentFor(*templates, j, trace); });
    const DataSchedule s = log.time("schedule", op, -1, [&] {
      return exp->schedule(*methodFromString(j.method));
    });
    log.time("verify", op, -1, [&] {
      return verifySchedule(s, exp->grid(), exp->capacity()).ok() &&
             verifyScheduleFaults(s, exp->refs(), exp->costModel()).ok();
    });
    log.time("evaluate", op, -1, [&] {
      return evaluateSchedule(s, exp->refs(), exp->costModel()).aggregate.total();
    });
    log.time("serialize", op, -1, [&] {
      std::ostringstream os;
      saveSchedule(s, os);
      return os.str().size();
    });
  }
  const double untracedP50 = median(out.latencyMs);
  out.layer("trace.parse_ms", median(log.perOpMs("parse")), "ms");
  out.layer("trace.refs_ms", median(log.perOpMs("construct")), "ms");
  out.layer("core.schedule_ms", median(log.perOpMs("schedule")), "ms");
  out.layer("core.verify_ms", median(log.perOpMs("verify")), "ms");
  out.layer("core.evaluate_ms", median(log.perOpMs("evaluate")), "ms");
  out.layer("core.serialize_ms", median(log.perOpMs("serialize")), "ms");
  out.layer("serve.queue_wait_ms", median(wait), "ms");
  out.layer("serve.run_ms", median(run), "ms");
  out.layer("serve.transport_ms", median(transport), "ms");
  out.layer("serve.cache_hit_ratio",
            ratio(static_cast<double>(ta.hits - tb.hits),
                  static_cast<double>(ta.hits - tb.hits + ta.misses - tb.misses)),
            "ratio");
  out.layer("serve.coalesced", static_cast<double>(ta.coalesced - tb.coalesced),
            "count");
  out.layer("serve.rejected", static_cast<double>(ta.rejected - tb.rejected),
            "count");
  out.layer("stages.coverage_pct", 100.0 * ratio(median(serverSide), untracedP50),
            "%");
  out.layer("trace_overhead_pct",
            100.0 * (ratio(median(latency), untracedP50) - 1.0), "%");
  out.note("spans", std::to_string(log.size()));
}

}  // namespace pimbench
