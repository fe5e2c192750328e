#pragma once

#include <cstdint>

namespace pimsched {

/// Order in which data are considered when competing for capacity slots
/// (the paper's Algorithm 1 assigns "data i" in an unspecified order; id
/// order is the natural reading, heaviest-first is a common refinement).
enum class DataOrder { kById, kByWeightDesc };

/// Options shared by SCDS / LOMCDS / GOMCDS.
struct SchedulerOptions {
  /// Per-processor memory capacity (data slots) enforced in every window;
  /// negative means unlimited.
  std::int64_t capacity = -1;

  DataOrder order = DataOrder::kById;

  /// Allow the incremental (warm-start) GOMCDS path to reuse retained
  /// solver state across consecutive solves of an evolving trace, re-
  /// relaxing only from the first changed window forward. Schedules are
  /// bit-identical either way; this is purely a speed knob for streaming
  /// callers holding an IncrementalSolver. The PIMSCHED_INCREMENTAL
  /// environment variable (0/1) overrides this at process level.
  bool incremental = true;
};

}  // namespace pimsched
