#include "serve/stream.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "obs/obs.hpp"

namespace pimsched::serve {

bool validSessionName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

Digest streamCompatDigest(const JobRequest& job) {
  const Digest config = configDigest(job.config);
  DigestBuilder b;
  b.str("pimstream");
  b.u64(config.hi);
  b.u64(config.lo);
  b.i64(job.gridRows);
  b.i64(job.gridCols);
  b.i64(static_cast<std::int64_t>(job.method));
  b.u64(static_cast<std::uint64_t>(job.faults.size()));
  for (const std::string& spec : job.faults) b.str(spec);
  b.str(job.tenant);
  return b.digest();
}

/// All mutable per-session state. The manager lock guards only the map and
/// LRU order; everything inside an Entry is guarded by its own mutex, so a
/// slow window never blocks unrelated sessions (and bulk invalidation
/// waits for an in-flight window of the affected session to finish).
struct StreamSessionManager::Entry {
  std::mutex mutex;
  Digest compat;
  std::string tag;
  std::unique_ptr<StreamSession> session;
  std::int64_t windows = 0;
};

StreamSessionManager::StreamSessionManager(std::size_t maxSessions)
    : maxSessions_(maxSessions == 0 ? 1 : maxSessions) {}

StreamSessionManager::~StreamSessionManager() = default;

StreamOutcome StreamSessionManager::submit(StreamRequest request,
                                           const StreamPin& pin) {
  StreamOutcome out;
  out.session = request.session;
  if (!validSessionName(request.session)) {
    out.error = "invalid session name (1..64 characters of [A-Za-z0-9_.-])";
    out.errorKind = "invalid";
    return out;
  }
  if (!request.job.trace.finalized()) request.job.trace.finalize();
  const Digest compat = streamCompatDigest(request.job);

  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(request.session);
    if (it == sessions_.end()) {
      while (sessions_.size() >= maxSessions_ && !order_.empty()) {
        sessions_.erase(order_.front());
        order_.pop_front();
        PIMSCHED_COUNTER_ADD("serve.session.evicted", 1);
      }
      it = sessions_.emplace(request.session, std::make_shared<Entry>()).first;
      order_.push_back(request.session);
      PIMSCHED_COUNTER_ADD("serve.session.opened", 1);
    } else {
      // Touch: promote to most-recently-used.
      for (auto o = order_.begin(); o != order_.end(); ++o) {
        if (*o == request.session) {
          order_.splice(order_.end(), order_, o);
          break;
        }
      }
    }
    entry = it->second;
  }

  std::lock_guard<std::mutex> lock(entry->mutex);
  const std::int64_t startNs = obs::nowNs();
  try {
    if (entry->session == nullptr || entry->compat != compat) {
      if (entry->session != nullptr) {
        PIMSCHED_COUNTER_ADD("serve.session.invalidated", 1);
      }
      std::vector<std::string> specs = pin.arrayFaults;
      specs.insert(specs.end(), request.job.faults.begin(),
                   request.job.faults.end());
      entry->session = std::make_unique<StreamSession>(
          request.job.gridRows, request.job.gridCols, request.job.config,
          request.job.method, specs);
      entry->compat = compat;
      entry->tag = pin.tag;
      entry->windows = 0;
      out.reset = true;
    }

    StreamStepResult step = entry->session->step(request.job.trace);

    auto result = std::make_shared<JobResult>();
    result->eval = std::move(step.eval);
    std::ostringstream os;
    saveSchedule(step.schedule, os);
    result->scheduleText = std::move(os).str();
    result->digest = jobDigest(request.job);
    result->runNs = obs::nowNs() - startNs;

    out.ok = true;
    out.window = entry->windows++;
    out.incremental = step.incremental;
    out.reusedLayers = step.reusedLayers;
    out.relaxedLayers = step.relaxedLayers;
    out.result = std::move(result);
    PIMSCHED_COUNTER_ADD("serve.session.windows", 1);
    if (out.incremental) PIMSCHED_COUNTER_ADD("serve.session.warm_hits", 1);
    return out;
  } catch (...) {
    const JobError error = classifyJobError(std::current_exception());
    out.ok = false;
    out.error = error.message;
    out.errorKind = error.kind;
    out.result.reset();
    return out;
  }
}

bool StreamSessionManager::close(const std::string& session) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return false;
  sessions_.erase(it);
  for (auto o = order_.begin(); o != order_.end(); ++o) {
    if (*o == session) {
      order_.erase(o);
      break;
    }
  }
  PIMSCHED_COUNTER_ADD("serve.session.closed", 1);
  return true;
}

std::int64_t StreamSessionManager::invalidateByTag(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t dropped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    // Lock each entry so an in-flight window finishes before its warm
    // state disappears (submit never holds the manager lock while an
    // entry lock is held, so the ordering here cannot deadlock).
    std::string entryTag;
    {
      std::lock_guard<std::mutex> entryLock(it->second->mutex);
      entryTag = it->second->tag;
    }
    if (entryTag == tag) {
      for (auto o = order_.begin(); o != order_.end(); ++o) {
        if (*o == it->first) {
          order_.erase(o);
          break;
        }
      }
      it = sessions_.erase(it);
      ++dropped;
      PIMSCHED_COUNTER_ADD("serve.session.invalidated", 1);
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t StreamSessionManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace pimsched::serve
