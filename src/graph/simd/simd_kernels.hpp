#pragma once

#include <cstddef>

#include "pim/types.hpp"

/// SIMD implementations of the flat GOMCDS solver's hot element passes,
/// selected once per process by runtime CPU detection (overridable with the
/// PIMSCHED_SIMD environment variable — see activeTier() below).
///
/// Every kernel performs exact 64-bit integer arithmetic over the same
/// candidate sets as its scalar counterpart, so both tiers are bit-identical
/// by construction; the property tests in tests/simd_kernels_test.cpp and
/// tests/layered_dag_test.cpp enforce it, and CI re-runs them with the
/// dispatch forced to each tier. Kernels use unaligned vector loads —
/// the 64-byte buffer alignment from util/aligned.hpp is a performance
/// contract, never a correctness requirement, so odd grid widths and
/// interior row offsets need no special casing.
namespace pimsched::simd {

/// Instruction tiers in strength order: the portable scalar reference and
/// AVX2. Hosts without AVX2 (older x86, NEON and friends) take the scalar
/// tier, whose loops are written branch-free so compilers auto-vectorize
/// them.
enum class Tier : int { kScalar = 0, kAvx2 = 1 };

[[nodiscard]] const char* tierName(Tier t);

/// The dispatched kernel table. All pointers are non-null in every table.
///
/// Shared preconditions (the solver cost contract, graph/layered_dag.hpp):
/// finite inputs are small enough that any candidate sum stays below
/// INT64_MAX; forbidden entries are exactly kInfiniteCost unless a kernel
/// says otherwise. Sweep values may drift above kInfiniteCost (deferred
/// clamp) only within the beta bound maxChamferBeta (pim/grid.hpp), which
/// CostModel and the chamfer solver enforce.
struct Kernels {
  /// acc[i] = min(acc[i], add + row[i]) — one source row of the generic
  /// min-plus relaxation. Requires add < kInfiniteCost.
  void (*minPlusRow)(const Cost* row, Cost add, Cost* acc, std::size_t n);

  /// One forward chamfer strip of `rows` rows (stride apart): every row is
  /// relaxed from the row above it — row[i] = min(row[i], above[i] + beta),
  /// where "above" is `up` for the strip's first row (skipped when up is
  /// nullptr, i.e. the grid's top row) — and then swept in-row forward,
  /// row[i] = min(row[i], row[i-1] + beta) for i = 1..n-1.
  ///
  /// Any interleaving of those relaxations that only consumes already-
  /// relaxed operands yields bit-identical values (each cell's candidate
  /// set is exactly { v(r',c') + beta*(dr+dc) : r' <= r, c' <= c } under
  /// exact arithmetic), which lets implementations pick their schedule: the
  /// scalar tier runs the vertical stage then four interleaved row chains;
  /// AVX2 fuses both stages per 4x4 block (vertical relax in registers,
  /// then a transposed column scan) so each strip is loaded and stored
  /// once. Implementations may form k*beta for k <= 4 (log-depth /
  /// reduce-then-scan schedules); the beta bound (maxChamferBeta, whose
  /// step count 2*(R+C)+2 is at least 6) keeps that in range.
  void (*chamferForwardStrip)(Cost* h, const Cost* up, std::size_t rows,
                              std::size_t stride, Cost beta, std::size_t n);

  /// Mirror strip: rows relaxed bottom-to-top from the row below (`down`
  /// for the strip's last row, nullptr at the grid's bottom), then the
  /// backward in-row sweep row[i] = min(row[i], row[i+1] + beta).
  void (*chamferBackwardStrip)(Cost* h, const Cost* down, std::size_t rows,
                               std::size_t stride, Cost beta, std::size_t n);

  /// out[i] = (relaxed[i] >= kInf || own[i] >= kInf) ? kInf
  ///                                                 : relaxed[i] + own[i]
  /// — merges one relaxed layer with its node costs (satAdd semantics with
  /// the relaxed side clamped first). relaxed[] may sit above kInfiniteCost.
  void (*combineLayer)(const Cost* relaxed, const Cost* own, Cost* out,
                       std::size_t n);

  /// v[i] = min(v[i], kInfiniteCost) — the deferred clamp.
  void (*clampInf)(Cost* v, std::size_t n);

  /// v[i] = forbidden[i] ? kInfiniteCost : v[i] — applies a capacity
  /// forbidden-set mask to a serving-cost table.
  void (*maskInf)(const unsigned char* forbidden, Cost* v, std::size_t n);

  /// Smallest i with prev[i] < kInfiniteCost && trans[i] < tMax &&
  /// prev[i] + trans[i] == need, or -1 — the path-reconstruction argmin
  /// scan. Requires prev[i] <= kInfiniteCost and
  /// trans[i] <= INT64_MAX - kInfiniteCost so the probe sum cannot wrap.
  std::ptrdiff_t (*findPredecessor)(const Cost* prev, const Cost* trans,
                                    Cost need, Cost tMax, std::size_t n);
};

/// True when this build + CPU can execute tier `t`.
[[nodiscard]] bool tierSupported(Tier t);

/// Strongest supported tier on this host.
[[nodiscard]] Tier bestSupportedTier();

/// Kernel table of a specific tier. Unsupported tiers fall back to the
/// strongest supported tier below them (scalar floor).
[[nodiscard]] const Kernels& kernelsFor(Tier t);

/// The tier active() dispatches to. Resolved once on first use: the
/// strongest CPU-supported tier, unless the PIMSCHED_SIMD environment
/// variable (scalar|avx2) overrides it — an unsupported or unknown
/// override warns on stderr and falls back. The resolved tier is recorded
/// in the gomcds.simd.tier.<name> counter.
[[nodiscard]] Tier activeTier();

/// The dispatched kernel table (kernelsFor(activeTier())).
[[nodiscard]] const Kernels& active();

/// Re-points active() at tier `t` (clamped to support, like kernelsFor) and
/// returns the tier actually installed. Bench/test hook — not thread-safe
/// against concurrent solver calls.
Tier forceTier(Tier t);

}  // namespace pimsched::simd
