#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <utility>

#include "bench.hpp"
#include "obs/obs.hpp"

namespace pimbench {

void RunResult::fail(const std::string& why) {
  ++failed;
  constexpr std::size_t kKeep = 8;
  if (failures.size() < kKeep) failures.push_back(why);
}

int SpanLog::open(const char* name, int op, int parent) {
  spans_.push_back({name, op, parent, pimsched::obs::nowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].endNs = pimsched::obs::nowNs();
}

std::vector<double> SpanLog::perOpMs(std::string_view name) const {
  std::vector<double> out;
  int lastOp = -1;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
    if (s.op == lastOp) {
      out.back() += ms;
    } else {
      out.push_back(ms);
      lastOp = s.op;
    }
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peakRssMb(long pid) {
  std::ifstream is(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

CounterDeltas::CounterDeltas(std::vector<std::string> names)
    : names_(std::move(names)),
      before_(names_.size(), 0),
      sum_(names_.size(), 0) {}

void CounterDeltas::start() {
  const auto& registry = pimsched::obs::Registry::instance();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    before_[i] = registry.counterValue(names_[i]);
  }
}

void CounterDeltas::stop() {
  const auto& registry = pimsched::obs::Registry::instance();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    sum_[i] += registry.counterValue(names_[i]) - before_[i];
  }
}

double CounterDeltas::operator[](std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  return static_cast<double>(sum_.at(
      static_cast<std::size_t>(it - names_.begin())));
}

}  // namespace pimbench
