#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pim/grid.hpp"
#include "pim/types.hpp"
#include "trace/trace.hpp"
#include "trace/window.hpp"

namespace pimsched {

/// One entry of a processor reference string: processor `proc` references
/// the datum with aggregate volume `weight` inside one execution window.
struct ProcWeight {
  ProcId proc = 0;
  Cost weight = 0;

  friend auto operator<=>(const ProcWeight&, const ProcWeight&) = default;
};

/// Seed of the row hashes below. It is one digit short of the canonical
/// FNV-1a offset basis (14695981039346656037); the hashes only bucket and
/// prescreen within one process, so the seed stays as it always was and
/// the tests pin the resulting values.
inline constexpr std::uint64_t kRowHashSeed = 1469598103934665603ull;

/// One byte-wise FNV-1a step over the eight little-endian bytes of v.
inline void rowHashMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
}

/// Mixes a reference string's (proc, weight) pairs into h: the one row
/// hash behind WindowedRefs::refsSignature and the incremental solver's
/// suffix signatures. Both mix the row length first, so that window
/// boundaries count.
inline void rowHashMixPairs(std::uint64_t& h, std::span<const ProcWeight> row) {
  for (const ProcWeight& pw : row) {
    rowHashMix(h, static_cast<std::uint32_t>(pw.proc));
    rowHashMix(h, static_cast<std::uint64_t>(pw.weight));
  }
}

/// The per-(datum, window) processor reference strings of an application —
/// the direct input of every scheduling algorithm in the paper. Stored in a
/// CSR layout: refs(d, w) is the sorted-by-proc list of (processor, weight)
/// pairs for datum d in window w.
class WindowedRefs {
 public:
  /// Aggregates a finalized trace under a window partition. The grid fixes
  /// the processor-id range; every access must reference a valid processor.
  WindowedRefs(const ReferenceTrace& trace, const WindowPartition& windows,
               const Grid& grid);

  [[nodiscard]] DataId numData() const { return numData_; }
  [[nodiscard]] int numWindows() const { return numWindows_; }
  [[nodiscard]] int numProcs() const { return numProcs_; }

  /// Reference string of datum d in window w (sorted by proc, weights > 0).
  [[nodiscard]] std::span<const ProcWeight> refs(DataId d, WindowId w) const {
    const std::size_t cell = cellIndex(d, w);
    return {entries_.data() + offsets_[cell],
            offsets_[cell + 1] - offsets_[cell]};
  }

  /// Total reference volume of datum d in window w.
  [[nodiscard]] Cost windowWeight(DataId d, WindowId w) const;

  /// Total reference volume of datum d across all windows.
  [[nodiscard]] Cost dataWeight(DataId d) const;

  /// Merged reference string of datum d over windows [wBegin, wEnd)
  /// (per-processor weights summed; sorted by proc). Used by SCDS (merge
  /// everything) and by window grouping.
  [[nodiscard]] std::vector<ProcWeight> mergedRefs(DataId d, WindowId wBegin,
                                                   WindowId wEnd) const;

  /// True if datum d is never referenced.
  [[nodiscard]] bool unreferenced(DataId d) const {
    return dataWeight(d) == 0;
  }

  /// FNV-1a digest over datum d's windowed reference strings (window
  /// boundaries included, so an access moving between windows changes the
  /// signature). Data with equal signatures are *candidates* for the same
  /// scheduling-equivalence class; confirm with sameRefs before merging.
  [[nodiscard]] std::uint64_t refsSignature(DataId d) const;

  /// FNV-1a digest over the single reference string of datum d in window w,
  /// using the same mixing scheme as the whole-datum signature (row length
  /// first, then each (proc, weight) pair). The incremental solver compares
  /// these per-window signatures across consecutive stream steps to locate
  /// the first changed layer; equal signatures are only *candidates* for
  /// equality — confirm with sameRefsAs before reusing solver state.
  [[nodiscard]] std::uint64_t refsSignature(DataId d, WindowId w) const;

  /// True if data a and b have byte-identical reference strings in every
  /// window — they pose the exact same per-datum scheduling subproblem.
  [[nodiscard]] bool sameRefs(DataId a, DataId b) const;

  /// True if datum d's reference string in window w is byte-identical to
  /// datum od's string in window ow of `other`. Cross-object variant of
  /// sameRefs used by the incremental change detector (signature prescreen,
  /// full compare on match to rule out FNV collisions).
  [[nodiscard]] bool sameRefsAs(const WindowedRefs& other, DataId d,
                                WindowId w, DataId od, WindowId ow) const;

  /// A copy with every reference issued by a masked processor dropped
  /// (deadMask[p] != 0 masks processor p; size must equal numProcs).
  /// Fault-aware scheduling feeds a FaultMap's dead-processor mask here:
  /// dead processors issue no references, so their demand must not steer
  /// center choice. An all-zero mask returns an identical copy.
  [[nodiscard]] WindowedRefs withProcsMasked(
      const std::vector<char>& deadMask) const;

 private:
  WindowedRefs() = default;

  [[nodiscard]] std::size_t cellIndex(DataId d, WindowId w) const {
    return static_cast<std::size_t>(d) * static_cast<std::size_t>(numWindows_) +
           static_cast<std::size_t>(w);
  }

  DataId numData_ = 0;
  int numWindows_ = 0;
  int numProcs_ = 0;
  std::vector<std::size_t> offsets_;  ///< numData*numWindows + 1 entries
  std::vector<ProcWeight> entries_;
  std::vector<Cost> dataWeight_;  ///< per-datum total volume
};

}  // namespace pimsched
