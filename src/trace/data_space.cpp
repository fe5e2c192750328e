#include "trace/data_space.hpp"

#include <cstdint>
#include <limits>

namespace pimsched {

int DataSpace::addArray(std::string name, int rows, int cols) {
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("DataSpace::addArray: dims must be >= 1");
  }
  // Every element needs a DataId: the array, and the id range after it,
  // must fit 32 bits.
  const std::int64_t size =
      static_cast<std::int64_t>(rows) * static_cast<std::int64_t>(cols);
  constexpr std::int64_t kMaxIds = std::numeric_limits<DataId>::max();
  if (size > kMaxIds - nextId_) {
    throw std::invalid_argument(
        "DataSpace::addArray: array sizes exceed the 32-bit data id range");
  }
  arrays_.push_back(ArrayInfo{std::move(name), rows, cols, nextId_});
  nextId_ += static_cast<DataId>(size);
  return static_cast<int>(arrays_.size()) - 1;
}

ElementRef DataSpace::element(DataId d) const {
  if (d < 0 || d >= nextId_) {
    throw std::out_of_range("DataSpace::element: id out of range");
  }
  // Arrays are registered with increasing baseId; linear scan is fine for
  // the handful of arrays a program declares.
  for (int a = numArrays() - 1; a >= 0; --a) {
    const ArrayInfo& info = arrays_[static_cast<std::size_t>(a)];
    if (d >= info.baseId) {
      const DataId off = d - info.baseId;
      return ElementRef{a, static_cast<int>(off) / info.cols,
                        static_cast<int>(off) % info.cols};
    }
  }
  throw std::logic_error("DataSpace::element: unreachable");
}

DataSpace DataSpace::singleSquare(int n, std::string name) {
  DataSpace ds;
  ds.addArray(std::move(name), n, n);
  return ds;
}

}  // namespace pimsched
