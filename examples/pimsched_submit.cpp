// pimsched_submit — command-line client for the pimsched_served daemon.
// Builds one NDJSON request, sends it over the daemon's Unix socket or
// TCP endpoint, prints the daemon's JSON reply on stdout and exits 0 when
// the reply says ok.
//
//   pimsched_submit (--socket PATH | --tcp HOST:PORT)
//                   [--retries N] [--backoff MS] VERB [args]
//     submit TRACE_FILE [--grid RxC] [--method NAME] [--windows N]
//                       [--capacity N|paper|unlimited] [--threads N]
//                       [--priority N] [--deadline-ms N] [--fault SPEC]...
//                       [--tenant NAME] [--batch]
//                       [--wait] [--schedule] [--inline]
//         --tenant    submit as this tenant (fleet daemons apply weighted
//                     fair shares and per-tenant quotas; see docs/fleet.md)
//         --batch     mark as bulk work: a fleet daemon only starts it
//                     while the latency-sensitive backlog is drained
//         --fault     add one fault spec (proc:P, link:A-B, row:R, col:C,
//                     region:R0,C0,R1,C1, cap:P=N, uniform-procs:N@SEED,
//                     uniform-links:N@SEED); repeatable
//         --wait      block until the job finishes and include its result
//         --schedule  include the scheduled placements in the reply
//         --inline    send the trace text inline instead of a server-side
//                     path (required when the daemon runs elsewhere or
//                     with --no-trace-files)
//     status ID
//     result ID [--no-wait] [--schedule]
//     cancel ID
//     stats
//     shutdown
//     inject ARRAY --fault SPEC [--fault SPEC]...
//         live fault drift: injects the specs into the named array of a
//         fleet daemon (wire verb "fault-inject"; "--inject" also
//         accepted). The daemon migrates queued work, re-runs in-flight
//         jobs under the live faults and invalidates stale cache entries.
//     heal ARRAY
//         rebuilds the named array from its boot spec, clearing every
//         injected fault ("--heal" also accepted)
//     stream FILE --session NAME [--grid RxC] [--method NAME]
//                 [--windows N] [--capacity N|paper|unlimited]
//                 [--threads N] [--fault SPEC]... [--tenant NAME]
//                 [--schedule] [--close]
//         replays an NDJSON window file over ONE persistent connection
//         using the submit-stream verb ("--stream" also accepted): each
//         line of FILE is a JSON object holding this window's "trace"
//         (inline pimtrace text) or "trace_file" (server-side path), plus
//         optional per-window overrides of any submit field. Session-level
//         options from the command line form the base request each line is
//         merged over. One reply is printed per window; --close sends
//         stream-close at the end. Exits 0 only when every reply was ok.
//
// --retries N retries transport failures (connect/read/write, e.g. the
// daemon is still starting) up to N times with exponential backoff
// starting at --backoff MS (default 100), with deterministic per-attempt
// jitter. Error replies from the daemon are never retried — the daemon
// already owns job-level retry.
//
// Exit codes: 0 = ok reply, 1 = error reply or transport failure,
// 2 = bad usage.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "serve/client.hpp"
#include "serve/json.hpp"

namespace {

using pimsched::serve::Connection;
using pimsched::serve::Endpoint;
using pimsched::serve::Json;

void printUsage(std::ostream& os) {
  os << "usage: pimsched_submit (--socket PATH | --tcp HOST:PORT)\n"
        "       [--retries N] [--backoff MS] VERB [args]\n"
        "  submit TRACE_FILE [--grid RxC] [--method NAME] [--windows N]\n"
        "         [--capacity N|paper|unlimited] [--threads N] "
        "[--priority N]\n"
        "         [--deadline-ms N] [--fault SPEC]... [--tenant NAME] "
        "[--batch]\n"
        "         [--wait] [--schedule] [--inline]\n"
        "  status ID | result ID [--no-wait] [--schedule] | cancel ID\n"
        "  stats | shutdown\n"
        "  inject ARRAY --fault SPEC [--fault SPEC]... | heal ARRAY\n"
        "  stream FILE --session NAME [--grid RxC] [--method NAME]\n"
        "         [--windows N] [--capacity N|paper|unlimited] "
        "[--threads N]\n"
        "         [--fault SPEC]... [--tenant NAME] [--schedule] "
        "[--close]\n";
}

/// True when the reply line is a JSON object whose "ok" is true.
bool replyOk(const std::string& reply) {
  const Json parsed = Json::parse(reply);
  const Json* ok = parsed.find("ok");
  return ok != nullptr && ok->isBool() && ok->asBool();
}

/// The `stream` verb: replays an NDJSON window file over one persistent
/// connection. Throws std::invalid_argument on usage errors (exit 2);
/// returns the process exit code otherwise.
int runStream(const Endpoint& endpoint, int argc, char** argv, int i) {
  if (i >= argc || argv[i][0] == '-') {
    throw std::invalid_argument("stream needs a window FILE");
  }
  const std::string windowFile = argv[i++];

  Json base;
  base.set("verb", "submit-stream");
  Json::Array faults;
  std::string session;
  bool closeAtEnd = false;
  const auto needValue = [&](const std::string& arg) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + arg);
    }
    return argv[++i];
  };
  const auto parseInt = [](const std::string& arg,
                           const std::string& v) -> std::int64_t {
    try {
      std::size_t parsed = 0;
      const std::int64_t out = std::stoll(v, &parsed);
      if (parsed != v.size()) throw std::invalid_argument(v);
      return out;
    } catch (const std::exception&) {
      throw std::invalid_argument("invalid integer for " + arg);
    }
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--session") session = needValue(arg);
    else if (arg == "--grid") base.set("grid", needValue(arg));
    else if (arg == "--method") base.set("method", needValue(arg));
    else if (arg == "--windows") {
      base.set("windows", parseInt(arg, needValue(arg)));
    } else if (arg == "--capacity") {
      const std::string v = needValue(arg);
      if (v == "paper" || v == "unlimited") base.set("capacity", v);
      else base.set("capacity", parseInt(arg, v));
    } else if (arg == "--threads") {
      base.set("threads", parseInt(arg, needValue(arg)));
    } else if (arg == "--tenant") {
      base.set("tenant", needValue(arg));
    } else if (arg == "--fault") {
      faults.push_back(Json(needValue(arg)));
    } else if (arg == "--schedule") {
      base.set("schedule", true);
    } else if (arg == "--close") {
      closeAtEnd = true;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (session.empty()) {
    throw std::invalid_argument("stream needs --session NAME");
  }
  base.set("session", session);
  if (!faults.empty()) base.set("faults", Json(std::move(faults)));

  std::ifstream is(windowFile);
  if (!is) {
    std::cerr << "error: cannot open window file " << windowFile << '\n';
    return 1;
  }

  // One connection for the whole replay: windows of a session must run
  // back to back against the shard/array holding the warm solver state.
  Connection conn(endpoint);
  bool allOk = true;
  const auto exchange = [&](const Json& request) {
    const std::string reply = conn.roundTrip(request.dump());
    // Flushed per window: a caller reading a pipe reacts to each reply
    // before it sends the next window.
    std::cout << reply << '\n' << std::flush;
    if (!replyOk(reply)) allOk = false;
  };
  std::string line;
  long lineNo = 0;
  try {
    while (std::getline(is, line)) {
      ++lineNo;
      if (line.empty()) continue;
      Json window;
      try {
        window = Json::parse(line);
      } catch (const std::exception& e) {
        std::cerr << "error: " << windowFile << ":" << lineNo
                  << ": bad JSON: " << e.what() << '\n';
        return 1;
      }
      if (!window.isObject()) {
        std::cerr << "error: " << windowFile << ":" << lineNo
                  << ": window must be a JSON object\n";
        return 1;
      }
      // Per-window fields override the session-level base request.
      Json request = base;
      for (const auto& [key, value] : window.asObject()) {
        request.set(key, value);
      }
      exchange(request);
    }
    if (closeAtEnd) {
      Json closeReq;
      closeReq.set("verb", "stream-close").set("session", session);
      exchange(closeReq);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return allOk ? 0 : 1;
}

/// Builds the request object from the verb-specific arguments; throws
/// std::invalid_argument on usage errors.
Json buildRequest(const std::string& verb, int argc, char** argv, int i) {
  const auto needValue = [&](const std::string& arg) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + arg);
    }
    return argv[++i];
  };
  const auto parseInt = [](const std::string& arg,
                           const std::string& v) -> std::int64_t {
    try {
      std::size_t parsed = 0;
      const std::int64_t out = std::stoll(v, &parsed);
      if (parsed != v.size()) throw std::invalid_argument(v);
      return out;
    } catch (const std::exception&) {
      throw std::invalid_argument("invalid integer for " + arg);
    }
  };

  Json request;
  request.set("verb", verb);

  if (verb == "submit") {
    if (i >= argc) throw std::invalid_argument("submit needs a TRACE_FILE");
    const std::string traceFile = argv[i++];
    bool inlineTrace = false;
    Json::Array faults;
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--grid") request.set("grid", needValue(arg));
      else if (arg == "--method") request.set("method", needValue(arg));
      else if (arg == "--windows") {
        request.set("windows", parseInt(arg, needValue(arg)));
      } else if (arg == "--capacity") {
        const std::string v = needValue(arg);
        if (v == "paper" || v == "unlimited") request.set("capacity", v);
        else request.set("capacity", parseInt(arg, v));
      } else if (arg == "--threads") {
        request.set("threads", parseInt(arg, needValue(arg)));
      } else if (arg == "--priority") {
        request.set("priority", parseInt(arg, needValue(arg)));
      } else if (arg == "--deadline-ms") {
        request.set("deadline_ms", parseInt(arg, needValue(arg)));
      } else if (arg == "--tenant") {
        request.set("tenant", needValue(arg));
      } else if (arg == "--batch") {
        request.set("batch", true);
      } else if (arg == "--fault") {
        faults.push_back(Json(needValue(arg)));
      } else if (arg == "--wait") {
        request.set("wait", true);
      } else if (arg == "--schedule") {
        request.set("schedule", true);
      } else if (arg == "--inline") {
        inlineTrace = true;
      } else {
        throw std::invalid_argument("unknown option " + arg);
      }
    }
    if (!faults.empty()) request.set("faults", Json(std::move(faults)));
    if (inlineTrace) {
      std::ifstream is(traceFile);
      if (!is) {
        throw std::runtime_error("cannot open trace file " + traceFile);
      }
      std::ostringstream text;
      text << is.rdbuf();
      request.set("trace", std::move(text).str());
    } else {
      request.set("trace_file", traceFile);
    }
    return request;
  }

  if (verb == "status" || verb == "result" || verb == "cancel") {
    if (i >= argc) throw std::invalid_argument(verb + " needs a job ID");
    request.set("id", parseInt("ID", argv[i++]));
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (verb == "result" && arg == "--no-wait") request.set("wait", false);
      else if (verb == "result" && arg == "--schedule") {
        request.set("schedule", true);
      } else {
        throw std::invalid_argument("unknown option " + arg);
      }
    }
    return request;
  }

  if (verb == "stats" || verb == "shutdown") {
    if (i < argc) {
      throw std::invalid_argument(verb + " takes no arguments");
    }
    return request;
  }

  if (verb == "fault-inject" || verb == "heal") {
    if (i >= argc) {
      throw std::invalid_argument(verb + " needs an ARRAY name");
    }
    request.set("array", std::string(argv[i++]));
    Json::Array faults;
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (verb == "fault-inject" && arg == "--fault") {
        faults.push_back(Json(needValue(arg)));
      } else {
        throw std::invalid_argument("unknown option " + arg);
      }
    }
    if (verb == "fault-inject") {
      if (faults.empty()) {
        throw std::invalid_argument(
            "fault-inject needs at least one --fault SPEC");
      }
      request.set("faults", Json(std::move(faults)));
    }
    return request;
  }

  throw std::invalid_argument("unknown verb '" + verb + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint endpoint;
  long retries = 0;
  long backoffMs = 100;
  int i = 1;
  try {
    for (; i + 1 < argc; i += 2) {
      const std::string arg = argv[i];
      if (pimsched::serve::parseEndpointFlag(arg, argv[i + 1], &endpoint)) {
        continue;
      }
      if (arg == "--retries") {
        retries = std::strtol(argv[i + 1], nullptr, 10);
      } else if (arg == "--backoff") {
        backoffMs = std::strtol(argv[i + 1], nullptr, 10);
      } else {
        break;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    printUsage(std::cerr);
    return 2;
  }
  if (endpoint.name().empty() || i >= argc || retries < 0 || backoffMs < 0) {
    std::cerr << "error: expected --socket PATH or --tcp HOST:PORT and a "
                 "verb\n\n";
    printUsage(std::cerr);
    return 2;
  }
  std::string verb = argv[i++];
  // CLI conveniences for the drift verbs: `inject` and the flag-style
  // spellings map onto the wire verbs.
  if (verb == "inject" || verb == "--inject") verb = "fault-inject";
  if (verb == "--heal") verb = "heal";

  // Streaming replays a whole file of windows over one connection, so it
  // bypasses the single-request round-trip (and its retry loop: retrying
  // mid-session would replay windows against already-advanced warm state).
  if (verb == "stream" || verb == "--stream") {
    try {
      return runStream(endpoint, argc, argv, i);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n\n";
      printUsage(std::cerr);
      return 2;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }

  Json request;
  try {
    request = buildRequest(verb, argc, argv, i);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    printUsage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  // Transport retry with exponential backoff. Jitter is deterministic in
  // the attempt number and pid so concurrent clients still de-synchronise
  // without any wall-clock or PRNG dependency.
  const std::string wire = request.dump();
  for (long attempt = 0;; ++attempt) {
    try {
      // No connect wait: --retries/--backoff own the retry policy.
      Connection conn(endpoint);
      const std::string reply = conn.roundTrip(wire);
      std::cout << reply << '\n';
      return replyOk(reply) ? 0 : 1;
    } catch (const std::exception& e) {
      if (attempt >= retries) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
      }
      std::uint64_t state =
          (static_cast<std::uint64_t>(::getpid()) << 16) ^
          static_cast<std::uint64_t>(attempt + 1);
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const long base = backoffMs << attempt;             // 1x, 2x, 4x, ...
      const long jitter =
          base > 0 ? static_cast<long>((state >> 33) %
                                       static_cast<std::uint64_t>(base + 1))
                   : 0;
      const long delayMs = base + jitter / 2;  // [base, 1.5 * base]
      std::cerr << "warn: " << e.what() << " (retry " << (attempt + 1)
                << "/" << retries << " in " << delayMs << " ms)\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
    }
  }
}
