#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/service.hpp"

namespace pimsched::serve {

/// Size bounds of a submitted job, checked before anything is built so an
/// oversized request is a structured `invalid` error rather than an
/// attempted multi-gigabyte allocation inside a worker. The fleet spec
/// parser holds array shapes to the same grid bounds.
inline constexpr std::int64_t kMaxGridSide = 4096;
inline constexpr std::int64_t kMaxGridProcs = std::int64_t{1} << 20;
/// Bound on numData x numWindows: the (datum, window) cells WindowedRefs
/// allocates for one job (a one-access trace may declare 2^31 data).
inline constexpr std::int64_t kMaxTraceCells = std::int64_t{1} << 24;

/// Why parseGridShape refused a grid; each caller words its own error.
enum class GridShapeError { kNone, kMalformed, kTooSmall, kTooLarge };

/// Parses an "RxC" grid shape into *rows / *cols and holds it to the
/// bounds above (at least 1x1, sides <= kMaxGridSide, processors <=
/// kMaxGridProcs). The submit protocol and the fleet spec share it.
GridShapeError parseGridShape(const std::string& shape, int* rows, int* cols);

struct ProtocolOptions {
  /// Requests longer than this are rejected with a structured error (the
  /// transport additionally closes a connection whose unterminated line
  /// exceeds it, since resynchronisation is impossible).
  std::size_t maxFrameBytes = 4u << 20;
  /// Permit `trace_file` submissions that read server-side paths. The
  /// daemon enables this; embedders exposed to untrusted clients can turn
  /// it off and require inline traces.
  bool allowTraceFiles = true;
  /// Permit the `shutdown` verb.
  bool allowShutdown = true;
  /// Permit the `fault-inject` / `heal` admin verbs (live fault drift).
  /// The any-shape array of a daemon started without `--fleet` reports
  /// drift as unsupported.
  bool allowFaultInject = true;
};

/// The serving wire protocol: newline-delimited JSON request objects, one
/// JSON reply object per request. Verbs (the `verb` member):
///
///   submit    trace | trace_file (data x windows <= 2^24 cells), grid
///             "RxC" (sides <= 4096, <= 2^20 processors), method, windows,
///             capacity ("paper" |
///             "unlimited" | N), threads, priority, deadline_ms, faults
///             (array of fault spec strings, validated against the grid at
///             submit time), wait — replies {ok, id, cached[, result
///             fields when wait]}
///   submit-stream  all submit fields plus session (1..64 chars of
///             [A-Za-z0-9_.-]) and schedule (include schedule text) — one
///             window of a streaming session, queued like a submit and
///             waited for, solved with warm per-session solver state;
///             replies {ok, session, window, incremental, reused_layers,
///             relaxed_layers, reset, serve, move, total, digest,
///             run_ns[, schedule]}
///   stream-close  session — drops the session's warm state; replies
///             {ok, session, closed}
///   status    id — replies {ok, state, priority, digest, attempts[,
///             error_detail, error_kind]}
///   result    id, wait (default true), schedule (include schedule text) —
///             replies {ok, state, serve, move, total, digest, cache_hit,
///             wait_ns, run_ns[, schedule, error_detail, error_kind,
///             attempts]}
///   cancel    id — replies {ok, cancelled}
///   stats     — replies {ok, queue_depth, running, accepted, rejected,
///             completed, failed, cancelled, deadline_missed, cache_hits,
///             cache_misses, coalesced, cache_entries, fleet}
///   shutdown  — replies {ok, draining:true}; the transport drains + exits
///   fault-inject  array, faults (non-empty array of spec strings) —
///             injects live faults into the named fleet array; replies
///             {ok, array, fault_signature, health, alive_procs,
///             dead_procs, requeued, cache_invalidated}
///   heal      array — rebuilds the named fleet array from its boot spec
///             (clears injected faults); same reply shape as fault-inject
///
/// Every failure — malformed JSON, oversized frame, unknown verb, missing
/// or ill-typed fields, unreadable traces — produces {ok:false, error:
/// "...", error_kind: "invalid" | "internal"} and never throws, so one
/// bad client request can never wedge the daemon ("invalid" = the request
/// itself is wrong and retrying it verbatim cannot succeed; "internal" =
/// the server misbehaved).
class ProtocolHandler {
 public:
  explicit ProtocolHandler(JobService& service,
                           ProtocolOptions options = {});

  /// Handles one request line (without the trailing newline) and returns
  /// the reply object serialised on one line (without a newline). Sets
  /// *shutdownRequested when an allowed `shutdown` verb was accepted;
  /// never throws.
  std::string handleLine(std::string_view line,
                         bool* shutdownRequested = nullptr);

  [[nodiscard]] const ProtocolOptions& options() const { return options_; }

 private:
  JobService* service_;
  ProtocolOptions options_;
};

}  // namespace pimsched::serve
