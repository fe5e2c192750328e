#include "cost/array_model.hpp"

#include <stdexcept>

#include "fault/fault_trace.hpp"

namespace pimsched {

void applyFaultSpecs(FaultMap& faults, std::span<const std::string> specs,
                     std::vector<std::string>* changed) {
  for (const std::string& spec : specs) {
    try {
      if (applyFaultSpec(faults, spec) && changed) changed->push_back(spec);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("bad fault spec '" + spec + "': " +
                                  e.what());
    }
  }
}

ArrayModel::ArrayModel(int rows, int cols, std::span<const std::string> specs)
    : faults_(Grid(rows, cols)) {
  applyFaultSpecs(faults_, specs, &canonical_);
  buildDistances();
}

ArrayModel::ArrayModel(const Grid& grid, const FaultMap& faults)
    : faults_(faults) {
  if (faults.grid().rows() != grid.rows() ||
      faults.grid().cols() != grid.cols()) {
    throw std::invalid_argument("ArrayModel: FaultMap of another shape");
  }
  buildDistances();
}

void ArrayModel::buildDistances() {
  if (faults_.anyFaults()) distances_.emplace(grid(), faults_);
}

}  // namespace pimsched
