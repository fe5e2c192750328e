#include "fleet/health.hpp"

#include <algorithm>

namespace pimsched::fleet {

namespace {

/// An array with fewer alive processors than this fraction is
/// quarantined outright, independent of failure history.
constexpr double kQuarantineAliveFraction = 0.5;
/// Consecutive job failures on one array that trigger a quarantine; a
/// success resets the streak.
constexpr int kFailureThreshold = 3;
/// More drift events (inject or heal) than kFlapLimit within kFlapWindowNs
/// quarantine the array as flapping — a mesh whose fault state churns is
/// not a mesh to place fresh work on.
constexpr int kFlapLimit = 4;
constexpr std::int64_t kFlapWindowNs = 10'000'000'000;

}  // namespace

const char* toString(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kQuarantined: return "quarantined";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(std::size_t arrayCount, HealthPolicy policy) {
  reset(arrayCount, policy);
}

void HealthMonitor::reset(std::size_t arrayCount, HealthPolicy policy) {
  policy_ = policy;
  entries_.assign(arrayCount, Entry{});
}

HealthState HealthMonitor::classify(const ArrayFacts& facts) const {
  const bool tooFewAlive =
      static_cast<double>(facts.aliveProcs) <
      kQuarantineAliveFraction * static_cast<double>(facts.totalProcs);
  if (tooFewAlive || facts.partitioned) return HealthState::kQuarantined;
  return facts.anyFaults ? HealthState::kDegraded : HealthState::kHealthy;
}

void HealthMonitor::setState(Entry& e, HealthState next, std::int64_t nowNs) {
  if (e.state == next) return;
  e.state = next;
  ++e.transitions;
  if (next == HealthState::kQuarantined) e.lastBadNs = nowNs;
}

void HealthMonitor::observe(std::size_t i, const ArrayFacts& facts,
                            std::int64_t nowNs) {
  Entry& e = entries_[i];
  e.facts = facts;
  setState(e, classify(facts), nowNs);
}

HealthState HealthMonitor::onDrift(std::size_t i, const ArrayFacts& facts,
                                   std::int64_t nowNs) {
  Entry& e = entries_[i];
  e.facts = facts;
  e.driftNs.push_back(nowNs);
  e.driftNs.erase(std::remove_if(e.driftNs.begin(), e.driftNs.end(),
                                 [&](std::int64_t t) {
                                   return nowNs - t > kFlapWindowNs;
                                 }),
                  e.driftNs.end());
  const bool flapping = static_cast<int>(e.driftNs.size()) > kFlapLimit;

  HealthState next = classify(facts);
  if (flapping) next = HealthState::kQuarantined;
  if (next == HealthState::kQuarantined) {
    setState(e, next, nowNs);
    e.lastBadNs = nowNs;  // refresh even when already quarantined
  } else if (e.state == HealthState::kQuarantined) {
    // The facts improved but re-admission is lazy: admissible() promotes
    // the array only after the cooldown has passed quietly (hysteresis).
    // A drift while quarantined still counts as activity worth waiting
    // out, so the cooldown restarts from here.
    e.lastBadNs = nowNs;
  } else {
    setState(e, next, nowNs);
  }
  return e.state;
}

HealthState HealthMonitor::onJobFailure(std::size_t i, std::int64_t nowNs) {
  Entry& e = entries_[i];
  ++e.failureStreak;
  if (e.failureStreak >= kFailureThreshold) {
    setState(e, HealthState::kQuarantined, nowNs);
    e.lastBadNs = nowNs;
  }
  return e.state;
}

void HealthMonitor::onJobSuccess(std::size_t i) {
  entries_[i].failureStreak = 0;
}

HealthState HealthMonitor::state(std::size_t i) const {
  return entries_[i].state;
}

std::int64_t HealthMonitor::transitions(std::size_t i) const {
  return entries_[i].transitions;
}

bool HealthMonitor::admissible(std::size_t i, std::int64_t nowNs) {
  Entry& e = entries_[i];
  if (e.state != HealthState::kQuarantined) return true;
  const HealthState deserved = classify(e.facts);
  if (deserved == HealthState::kQuarantined) return false;
  if (nowNs - e.lastBadNs < policy_.cooldownNs) return false;
  // Cooldown served with acceptable facts: re-admit at the deserved
  // severity. The failure streak restarts fresh.
  e.failureStreak = 0;
  setState(e, deserved, nowNs);
  return true;
}

}  // namespace pimsched::fleet
