#pragma once

#include <cstdint>

#include "kernels/iteration_map.hpp"
#include "kernels/trace_builder.hpp"

namespace pimsched {

/// Substitute for the paper's "CODE" kernel (University of Notre Dame CSE
/// TR 97-09, unavailable). The paper uses CODE purely as a source of a
/// complicated, non-uniform data reference string, combined with LU and
/// matmul in benchmarks 3-5.
///
/// This kernel reproduces those characteristics deterministically:
///  * irregular: accesses are driven by an indirection stream from a fixed
///    64-bit LCG (no linear or uniform dependence structure);
///  * clustered: accesses concentrate around a hotspot with a triangular
///    offset distribution, so a datum's reference string has a clear
///    per-window center;
///  * drifting: the hotspot wanders diagonally across the array over the n
///    execution steps, so the best center moves between windows — exactly
///    the situation where multiple-center scheduling beats single-center.
///
/// One step per phase t in [0, n); each phase issues n*n/4 single-weight
/// references into the n x n array "A"; the executing processor is the
/// owner of an independently jittered iteration point near the hotspot.
void emitIrregularCode(TraceBuilder& tb, const IterationMap& map, int n,
                       std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

/// How the hotspot of a CODE variant wanders over the phases. Since the
/// original CODE kernel is unavailable, the reproduction's conclusions
/// must not hinge on one reconstruction: section A11 of
/// bench/paper_experiments re-runs the evaluation across all of these.
enum class HotspotPath {
  kDiagonalSwing,  ///< the default emitIrregularCode behaviour
  kRandomWalk,     ///< LCG-driven bounded random walk
  kTwoPhase,       ///< parks in one corner, jumps to the other mid-run
  kOrbit,          ///< loops around the array boundary
};

struct IrregularCodeOptions {
  HotspotPath path = HotspotPath::kDiagonalSwing;
  /// Hotspot cluster radius = n / spreadDivisor (larger divisor = tighter
  /// clusters = stronger locality).
  int spreadDivisor = 4;
  /// References per phase = n * n / refsDivisor.
  int refsDivisor = 4;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/// Parameterised CODE family. With default options this produces exactly
/// the same trace as emitIrregularCode.
void emitIrregularCodeVariant(TraceBuilder& tb, const IterationMap& map,
                              int n, const IrregularCodeOptions& options);

}  // namespace pimsched
