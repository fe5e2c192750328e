#include "fleet/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "cost/center_costs.hpp"
#include "serve/protocol.hpp"
#include "trace/trace_io.hpp"

namespace pimsched::fleet {

namespace {

[[noreturn]] void badFleetSpec(const std::string& entry, const char* why) {
  throw std::invalid_argument("fleet spec \"" + entry + "\": " + why);
}

bool validName(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  const auto tail = [&](char c) {
    return head(c) || (c >= '0' && c <= '9') || c == '.' || c == '-';
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin() + 1, name.end(), tail);
}

}  // namespace

std::vector<ArraySpec> parseFleetSpec(const std::string& spec) {
  std::vector<ArraySpec> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t end = spec.find(';', start);
    const std::string entry =
        spec.substr(start, end == std::string::npos ? end : end - start);
    if (entry.empty()) badFleetSpec(spec, "empty array entry");

    ArraySpec array;
    // Head (before the first ':') is [NAME=]RxC; the tail is '+'-joined
    // fault specs, which may themselves contain ':' / '=' / ','.
    const std::size_t colon = entry.find(':');
    std::string head = entry.substr(0, colon);
    const std::size_t eq = head.find('=');
    if (eq != std::string::npos) {
      array.name = head.substr(0, eq);
      if (!validName(array.name)) {
        badFleetSpec(entry, "array name must match [A-Za-z_][A-Za-z0-9_.-]*");
      }
      head = head.substr(eq + 1);
    } else {
      array.name = "array" + std::to_string(out.size());
    }
    switch (serve::parseGridShape(head, &array.rows, &array.cols)) {
      case serve::GridShapeError::kNone:
        break;
      case serve::GridShapeError::kMalformed:
        badFleetSpec(entry, "expected RxC shape");
      case serve::GridShapeError::kTooSmall:
        badFleetSpec(entry, "grid must be at least 1x1");
      case serve::GridShapeError::kTooLarge:
        badFleetSpec(entry, "grid too large");
    }

    if (colon != std::string::npos) {
      const std::string tail = entry.substr(colon + 1);
      if (tail.empty()) badFleetSpec(entry, "empty fault spec list");
      std::size_t fs = 0;
      while (fs <= tail.size()) {
        const std::size_t fe = tail.find('+', fs);
        const std::string one =
            tail.substr(fs, fe == std::string::npos ? fe : fe - fs);
        if (one.empty()) badFleetSpec(entry, "empty fault spec");
        array.faults.push_back(one);
        if (fe == std::string::npos) break;
        fs = fe + 1;
      }
      // Validate every spec against the declared grid now so a bad fleet
      // spec is a startup error, not a failed job later.
      FaultMap probe(Grid(array.rows, array.cols));
      try {
        applyFaultSpecs(probe, array.faults);
      } catch (const std::invalid_argument& e) {
        badFleetSpec(entry, e.what());
      }
    }
    out.push_back(std::move(array));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  if (out.empty()) badFleetSpec(spec, "no arrays");
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      if (out[i].name == out[j].name) {
        badFleetSpec(spec, "duplicate array name");
      }
    }
  }
  return out;
}

ArrayState::ArrayState(ArraySpec spec, std::vector<std::string> injected)
    : spec_(std::move(spec)), injected_(std::move(injected)) {
  if (spec_.rows == 0 && spec_.cols == 0) return;  // the any-shape array
  // Two spec lists with the same effect share one canonical list, hence
  // one faultSignature (and one result-cache partition).
  std::vector<std::string> specs = spec_.faults;
  specs.insert(specs.end(), injected_.begin(), injected_.end());
  model_ = std::make_unique<const ArrayModel>(spec_.rows, spec_.cols, specs);
  const std::vector<std::string>& canonical = model_->canonicalSpecs();
  if (!canonical.empty()) {
    DigestBuilder b;
    b.str("pimfleet-array");
    b.i64(spec_.rows);
    b.i64(spec_.cols);
    b.u64(canonical.size());
    for (const std::string& one : canonical) b.str(one);
    signature_ = b.digest().hex();
  }
}

Cost ArrayState::estimateCost(std::span<const ProcWeight> refs,
                              std::vector<Cost>& scratch) {
  // Mirror the pipeline's fault semantics: references issued by dead
  // processors are dropped, not served — pricing them would wrongly mark
  // every faulted array infeasible for any trace touching a dead proc.
  const FaultMap& faults = model_->faults();
  if (faults.deadProcCount() > 0) {
    refsScratch_.clear();
    for (const ProcWeight& pw : refs) {
      if (!faults.procDead(pw.proc)) refsScratch_.push_back(pw);
    }
    refs = refsScratch_;
  }
  if (refs.empty()) return 0;
  const CostModel model = model_->costModel();
  separableCenterCostsInto(model, refs, scratch);
  Cost best = kInfiniteCost;
  for (ProcId p = 0; p < model_->grid().size(); ++p) {
    if (model.centerForbidden(p)) continue;
    best = std::min(best, scratch[static_cast<std::size_t>(p)]);
  }
  return best;
}

std::int64_t ArrayState::capacitySlots(std::int64_t perProc) const {
  const FaultMap& faults = model_->faults();
  std::int64_t total = 0;
  for (ProcId p = 0; p < model_->grid().size(); ++p) {
    if (faults.procDead(p)) continue;
    const std::int64_t limit = faults.capacityLimit(p);
    total += limit >= 0 ? std::min(limit, perProc) : perProc;
  }
  return total;
}

ArrayFleet::ArrayFleet(const std::vector<ArraySpec>& specs) {
  if (specs.empty()) {
    arrays_.push_back(
        std::make_unique<ArrayState>(ArraySpec{"default", 0, 0, {}}));
    return;
  }
  arrays_.reserve(specs.size());
  for (const ArraySpec& spec : specs) {
    if (!validName(spec.name)) {
      throw std::invalid_argument("ArrayFleet: bad array name \"" +
                                  spec.name + "\"");
    }
    if (spec.rows < 1 || spec.cols < 1) {
      throw std::invalid_argument("ArrayFleet: array \"" + spec.name +
                                  "\" needs a grid of at least 1x1");
    }
    if (find(spec.name) >= 0) {
      throw std::invalid_argument("ArrayFleet: duplicate array name \"" +
                                  spec.name + "\"");
    }
    arrays_.push_back(std::make_unique<ArrayState>(spec));
  }
}

int ArrayFleet::find(const std::string& name) const {
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (arrays_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

void ArrayFleet::drift(std::size_t i, std::vector<std::string> injected) {
  // Build the replacement first: a bad spec throws out of the ArrayState
  // constructor and the live state is never touched.
  ArraySpec spec = arrays_[i]->spec();
  arrays_[i] = std::make_unique<ArrayState>(std::move(spec),
                                            std::move(injected));
}

std::vector<std::size_t> ArrayFleet::eligibleFor(int rows, int cols) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const ArrayState& a = *arrays_[i];
    if (a.anyShape() ||
        (a.rows() == rows && a.cols() == cols && a.aliveProcs() > 0)) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace pimsched::fleet
