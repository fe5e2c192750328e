#include "trace/trace.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pimsched {

void ReferenceTrace::add(StepId step, ProcId proc, DataId data, Cost weight) {
  if (step < 0) throw std::invalid_argument("Access step must be >= 0");
  // numSteps() is the largest step + 1, which must fit a StepId too.
  if (step == std::numeric_limits<StepId>::max()) {
    throw std::invalid_argument("Access step must be < 2147483647");
  }
  if (proc < 0) throw std::invalid_argument("Access proc must be >= 0");
  if (data < 0 || data >= dataSpace_.numData()) {
    throw std::invalid_argument("Access data id out of DataSpace range");
  }
  if (weight <= 0) throw std::invalid_argument("Access weight must be > 0");
  // Weights are positive, so the total bounds every weight finalize()
  // merges: keeping it in range keeps those sums in range too.
  if (weight > std::numeric_limits<Cost>::max() - totalWeight_) {
    throw std::invalid_argument(
        "Access weights must sum to at most 9223372036854775807");
  }
  accesses_.push_back(Access{step, proc, data, weight});
  totalWeight_ += weight;
  finalized_ = false;
}

void ReferenceTrace::finalize() {
  if (finalized_) return;
  const auto byKey = [](const Access& a, const Access& b) {
    if (a.step != b.step) return a.step < b.step;
    if (a.data != b.data) return a.data < b.data;
    return a.proc < b.proc;
  };
  // A trace loaded from saveTrace output is already in key order. Equal
  // keys are merged below, so their relative order never shows.
  if (!std::is_sorted(accesses_.begin(), accesses_.end(), byKey)) {
    std::sort(accesses_.begin(), accesses_.end(), byKey);
  }
  // Merge duplicate (step, data, proc) triples by summing weights.
  std::size_t out = 0;
  for (std::size_t i = 0; i < accesses_.size(); ++i) {
    if (out > 0 && accesses_[out - 1].step == accesses_[i].step &&
        accesses_[out - 1].data == accesses_[i].data &&
        accesses_[out - 1].proc == accesses_[i].proc) {
      accesses_[out - 1].weight += accesses_[i].weight;
    } else {
      accesses_[out++] = accesses_[i];
    }
  }
  accesses_.resize(out);

  numSteps_ = accesses_.empty() ? 0 : accesses_.back().step + 1;
  finalized_ = true;
}

}  // namespace pimsched
