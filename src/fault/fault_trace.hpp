#pragma once

#include <string>

#include "fault/fault_map.hpp"

namespace pimsched {

/// Applies one fault spec string to a map. Accepted forms:
///
///   proc:P            kill processor P
///   link:A-B          kill the directed link A -> B
///   row:R             kill every processor in row R
///   col:C             kill every processor in column C
///   region:R0,C0,R1,C1  kill the inclusive rectangle
///   cap:P=N           cap processor P at N data slots
///   uniform-procs:N@SEED  kill N random alive processors (seeded)
///   uniform-links:N@SEED  kill N random alive directed links (seeded)
///
/// Throws std::invalid_argument on malformed specs or out-of-grid
/// targets. This is the grammar the serve protocol's "faults" job field
/// and pimsched_submit's --fault flag use.
///
/// Returns true when the spec changed the map, false when it was a
/// duplicate (every target already dead / capped at or below the
/// requested bound). Duplicates are counted in `fault.spec.duplicates`,
/// so fleet health descriptors built from spec lists stay canonical:
/// dropping every false-returning spec reproduces the same map.
bool applyFaultSpec(FaultMap& map, const std::string& spec);

}  // namespace pimsched
