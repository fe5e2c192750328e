#pragma once

#include "core/schedule.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Brute-force reference: enumerates every center sequence of every datum
/// (numProcs ^ numWindows combinations per datum, data independent when
/// capacity is unlimited) and keeps the cheapest. Exists to certify GOMCDS
/// optimality in tests; refuses instances with more than `maxCombinations`
/// sequences per datum. On a faulted mesh, sums saturate at kInfiniteCost,
/// and a datum whose every sequence costs that throws UnreachableError.
[[nodiscard]] DataSchedule scheduleExhaustive(
    const WindowedRefs& refs, const CostModel& model,
    std::uint64_t maxCombinations = 50'000'000);

}  // namespace pimsched
