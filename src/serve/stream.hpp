#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/service.hpp"

namespace pimsched::serve {

/// Session names are client-chosen identifiers, so they get the same
/// character discipline as tenants: [A-Za-z0-9_.-], 1..64 characters.
[[nodiscard]] bool validSessionName(const std::string& name);

/// Digest of everything that must stay *fixed* across the windows of one
/// streaming session: grid shape, pipeline config, method, fault specs and
/// tenant. The trace is deliberately excluded — evolving it is the whole
/// point of a session. A window arriving with a different compat digest
/// resets the session's warm state (serve.session.invalidated) instead of
/// serving an answer computed under the wrong configuration.
[[nodiscard]] Digest streamCompatDigest(const JobRequest& job);

/// Placement of a session chosen by the hosting service when the session
/// is created or reset: `arrayFaults` are standing faults merged in front
/// of the request's own specs (the fleet's canonical array faults — empty
/// on a healthy array), `tag` groups sessions for bulk invalidation
/// (the fleet tags each session with its hosting array so drift on that
/// array drops exactly the affected warm state).
struct StreamPin {
  std::string tag;
  std::vector<std::string> arrayFaults;
};

/// Keyed store of warm streaming-session state: one core StreamSession
/// (incremental GOMCDS solver + fault state) per session name, bounded by
/// `maxSessions` with true-LRU eviction. Windows of one session are meant
/// to be submitted back to back by a single client connection; concurrent
/// windows of the *same* session serialize on a per-session mutex, while
/// different sessions never contend beyond the map lookup.
///
/// Counters: serve.session.{opened,closed,windows,warm_hits,invalidated,
/// evicted}.
class StreamSessionManager {
 public:
  explicit StreamSessionManager(std::size_t maxSessions = 64);
  ~StreamSessionManager();

  StreamSessionManager(const StreamSessionManager&) = delete;
  StreamSessionManager& operator=(const StreamSessionManager&) = delete;

  /// Solves one window synchronously. Creates the session on first touch
  /// (using `pin`), resets it when the compat digest changed, and reuses
  /// its warm solver state otherwise. Never throws: failures come back as
  /// ok == false with the job-error taxonomy in errorKind.
  StreamOutcome submit(StreamRequest request, const StreamPin& pin = {});

  /// Drops a session and its warm state; returns whether it existed.
  bool close(const std::string& session);

  /// Drops every session created with the given pin tag (fault drift on
  /// the tagged array); returns how many were invalidated.
  std::int64_t invalidateByTag(const std::string& tag);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry;

  std::size_t maxSessions_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> sessions_;
  std::list<std::string> order_;  ///< front = LRU, back = MRU
};

}  // namespace pimsched::serve
