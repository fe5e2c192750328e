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
  accesses_.push_back(Access{step, proc, data, weight});
  finalized_ = false;
}

void ReferenceTrace::finalize() {
  if (finalized_) return;
  std::sort(accesses_.begin(), accesses_.end(),
            [](const Access& a, const Access& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.data != b.data) return a.data < b.data;
              return a.proc < b.proc;
            });
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
  totalWeight_ = 0;
  for (const Access& a : accesses_) totalWeight_ += a.weight;
  finalized_ = true;
}

}  // namespace pimsched
