#include "serve/stream.hpp"

#include <sstream>
#include <stdexcept>
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

Digest streamCompatDigest(const JobRequest& job,
                          const std::vector<std::string>& arrayFaults) {
  const Digest config = configDigest(job.config);
  DigestBuilder b;
  b.str("pimstream");
  b.u64(config.hi);
  b.u64(config.lo);
  b.i64(job.gridRows);
  b.i64(job.gridCols);
  b.i64(static_cast<std::int64_t>(job.method));
  b.u64(static_cast<std::uint64_t>(arrayFaults.size()));
  for (const std::string& spec : arrayFaults) b.str(spec);
  b.u64(static_cast<std::uint64_t>(job.faults.size()));
  for (const std::string& spec : job.faults) b.str(spec);
  b.str(job.tenant);
  return b.digest();
}

/// One session. `order` and `home` are guarded by the manager lock;
/// everything else by the entry's own mutex, so a slow window never blocks
/// unrelated sessions.
struct StreamSessionManager::Entry {
  std::list<std::string>::iterator order;  ///< position in order_
  int home = -1;
  std::mutex mutex;
  Digest compat;
  std::unique_ptr<StreamSession> session;
  std::int64_t windows = 0;
};

StreamSessionManager::StreamSessionManager(std::size_t maxSessions)
    : maxSessions_(maxSessions == 0 ? 1 : maxSessions) {}

StreamSessionManager::~StreamSessionManager() = default;

StreamOutcome StreamSessionManager::step(
    const std::string& session, const JobRequest& job,
    const std::vector<std::string>& arrayFaults, int home) {
  if (!validSessionName(session)) {
    throw std::invalid_argument(
        "invalid session name (1..64 characters of [A-Za-z0-9_.-])");
  }
  const Digest compat = streamCompatDigest(job, arrayFaults);

  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      while (sessions_.size() >= maxSessions_) {
        sessions_.erase(order_.front());
        order_.pop_front();
        PIMSCHED_COUNTER_ADD("serve.session.evicted", 1);
      }
      it = sessions_.emplace(session, std::make_shared<Entry>()).first;
      it->second->order = order_.insert(order_.end(), session);
      PIMSCHED_COUNTER_ADD("serve.session.opened", 1);
    } else {
      order_.splice(order_.end(), order_, it->second->order);
    }
    it->second->home = home;
    entry = it->second;
  }

  std::lock_guard<std::mutex> lock(entry->mutex);
  StreamOutcome out;
  out.session = session;
  if (entry->session == nullptr || entry->compat != compat) {
    if (entry->session != nullptr) {
      PIMSCHED_COUNTER_ADD("serve.session.invalidated", 1);
    }
    std::vector<std::string> specs = arrayFaults;
    specs.insert(specs.end(), job.faults.begin(), job.faults.end());
    entry->session = std::make_unique<StreamSession>(
        job.gridRows, job.gridCols, job.config, job.method, specs);
    entry->compat = compat;
    entry->windows = 0;
    out.reset = true;
  }

  StreamStepResult step = entry->session->step(job.trace);

  auto result = std::make_shared<JobResult>();
  result->eval = std::move(step.eval);
  std::ostringstream os;
  saveSchedule(step.schedule, os);
  result->scheduleText = std::move(os).str();

  out.ok = true;
  out.window = entry->windows++;
  out.incremental = step.incremental;
  out.reusedLayers = step.reusedLayers;
  out.relaxedLayers = step.relaxedLayers;
  out.result = std::move(result);
  PIMSCHED_COUNTER_ADD("serve.session.windows", 1);
  if (out.incremental) PIMSCHED_COUNTER_ADD("serve.session.warm_hits", 1);
  return out;
}

int StreamSessionManager::home(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? -1 : it->second->home;
}

bool StreamSessionManager::close(const std::string& session) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return false;
  order_.erase(it->second->order);
  sessions_.erase(it);
  PIMSCHED_COUNTER_ADD("serve.session.closed", 1);
  return true;
}

std::size_t StreamSessionManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace pimsched::serve
