#include "ablation/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pimsched {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double logSum = 0.0;
  for (const double v : values) {
    if (v <= 0.0) {
      throw std::invalid_argument("geomean: values must be positive");
    }
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

double minOf(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("minOf: empty input");
  return *std::min_element(values.begin(), values.end());
}

double maxOf(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("maxOf: empty input");
  return *std::max_element(values.begin(), values.end());
}

}  // namespace pimsched
