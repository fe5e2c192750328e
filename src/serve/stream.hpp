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
/// streaming session: grid shape, pipeline config, method, the hosting
/// array's standing faults, the window's fault specs and tenant. The trace
/// is deliberately excluded — evolving it is the whole point of a session.
/// A window arriving with a different compat digest resets the session's
/// warm state (serve.session.invalidated) instead of serving an answer
/// computed under the wrong configuration or stale array faults.
[[nodiscard]] Digest streamCompatDigest(
    const JobRequest& job, const std::vector<std::string>& arrayFaults = {});

/// Keyed store of warm streaming-session state: one core StreamSession
/// (incremental GOMCDS solver + fault state) per session name, bounded by
/// `maxSessions` with true-LRU eviction. Concurrent windows of the *same*
/// session serialize on a per-session mutex, while different sessions
/// never contend beyond the map lookup.
///
/// Counters: serve.session.{opened,closed,windows,warm_hits,invalidated,
/// evicted}.
class StreamSessionManager {
 public:
  explicit StreamSessionManager(std::size_t maxSessions = 64);
  ~StreamSessionManager();

  StreamSessionManager(const StreamSessionManager&) = delete;
  StreamSessionManager& operator=(const StreamSessionManager&) = delete;

  /// Solves one window of `session` on the grid with `arrayFaults` (the
  /// hosting array's standing faults) merged in front of the job's own
  /// specs, and records `home` as the array the session last ran on.
  /// Creates the session on first touch, rebuilds its warm state when the
  /// compat digest changed, and reuses it otherwise. `job.trace` must be
  /// finalized. Like executeJobRequest it fills the result's
  /// eval/scheduleText (digest/wait/run stamps are the caller's) and
  /// throws on failure (classify with classifyJobError); an invalid
  /// session name is std::invalid_argument.
  StreamOutcome step(const std::string& session, const JobRequest& job,
                     const std::vector<std::string>& arrayFaults = {},
                     int home = -1);

  /// The `home` recorded by the session's last window; -1 when the
  /// session does not exist.
  [[nodiscard]] int home(const std::string& session) const;

  /// Drops a session and its warm state; returns whether it existed.
  bool close(const std::string& session);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry;

  std::size_t maxSessions_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> sessions_;
  std::list<std::string> order_;  ///< front = LRU, back = MRU
};

}  // namespace pimsched::serve
