#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cost/array_model.hpp"
#include "pim/types.hpp"

namespace pimsched::fleet {

/// Declarative description of one PIM array in a fleet: a name, the grid
/// shape, and the standing fault specs (fault_trace.hpp grammar) that
/// describe its current health. This is what the `--fleet` daemon flag
/// parses and what FleetService is configured with.
struct ArraySpec {
  std::string name;
  int rows = 4;
  int cols = 4;
  /// Standing faults of this array, applied in order. Jobs placed on the
  /// array run with these merged in front of their own fault specs.
  std::vector<std::string> faults;
};

/// Parses a fleet spec string: arrays separated by ';', each
///
///   [NAME=]RxC[:SPEC[+SPEC...]]
///
/// e.g. "a0=4x4;a1=4x4:proc:5+link:0-1;8x8". Fault specs are joined by
/// '+' because the spec grammar itself uses ',', '=' and ':'. Unnamed
/// arrays are auto-named "array<i>" by position. Names must match
/// [A-Za-z_][A-Za-z0-9_.-]* and be unique; grids are bounded like the
/// submit protocol (sides <= 4096, <= 2^20 processors); every fault spec
/// is validated against its grid. Throws std::invalid_argument on any
/// violation.
[[nodiscard]] std::vector<ArraySpec> parseFleetSpec(const std::string& spec);

/// The live state of one array: its ArrayModel (grid, fault map, canonical
/// fault list and, when any fault is present, the distance table behind
/// the selector's estimates). Built from an ArraySpec plus the faults
/// injected at runtime (live drift). An ArrayState is immutable once
/// built — drift replaces the whole state atomically (ArrayFleet::drift).
///
/// A spec of shape 0x0 is the *any-shape* array: one healthy array that
/// hosts jobs of every grid shape, with no model of its own (each job
/// builds its grid from the request, exactly like the plain
/// executeJobRequest path). It is what an ArrayFleet built from no specs
/// holds; it is always the only candidate, so it is never priced
/// (estimateCost / capacitySlots must not be called on it) and never
/// drifts.
class ArrayState {
 public:
  /// `injected` are live-drift fault specs layered on top of the boot
  /// spec's standing faults; healing an array rebuilds it with an empty
  /// injected list. Every spec must parse (applyFaultSpecs throws
  /// otherwise).
  explicit ArrayState(ArraySpec spec,
                      std::vector<std::string> injected = {});

  [[nodiscard]] const ArraySpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] int rows() const { return spec_.rows; }
  [[nodiscard]] int cols() const { return spec_.cols; }
  [[nodiscard]] bool anyShape() const { return model_ == nullptr; }

  [[nodiscard]] bool healthy() const { return canonicalFaults().empty(); }
  /// Processor counts; all 0 for the any-shape array.
  [[nodiscard]] int aliveProcs() const {
    return anyShape() ? 0 : model_->faults().aliveProcCount();
  }
  [[nodiscard]] int deadProcs() const {
    return anyShape() ? 0 : model_->faults().deadProcCount();
  }
  [[nodiscard]] int deadLinks() const {
    return anyShape() ? 0 : model_->faults().deadLinkCount();
  }
  /// True when the alive sub-mesh is partitioned (some alive pair cannot
  /// communicate) — such an array can still serve jobs whose references
  /// stay inside one component, but the selector deprioritizes it.
  [[nodiscard]] bool partitioned() const {
    return !anyShape() && model_->distances() != nullptr &&
           model_->distances()->partitioned();
  }

  /// The boot faults followed by the injected faults, with duplicate
  /// (no-op) specs dropped — the canonical health descriptor
  /// (ArrayModel::canonicalSpecs). Jobs run with exactly this list merged
  /// in front of their own specs. (The any-shape array's spec has none.)
  [[nodiscard]] const std::vector<std::string>& canonicalFaults() const {
    return anyShape() ? spec_.faults : model_->canonicalSpecs();
  }
  /// The live-drift fault specs this state was built with (in arrival
  /// order, duplicates included) — what an inject extends and a heal
  /// clears. The boot faults stay in spec().faults.
  [[nodiscard]] const std::vector<std::string>& injectedFaults() const {
    return injected_;
  }
  /// Content signature of the canonical fault list: "" for a healthy
  /// array (so all healthy arrays of one shape share result-cache
  /// entries), a digest hex otherwise. FleetService keys its result cache
  /// by jobDigest|signature.
  [[nodiscard]] const std::string& faultSignature() const {
    return signature_;
  }

  /// Estimated serving cost of an aggregated whole-trace reference string
  /// on this array: the cheapest alive center under the ArrayModel's
  /// metric, which executeJobRequest also uses for jobs placed here.
  /// References issued by this array's dead processors are dropped first,
  /// mirroring the pipeline's fault semantics. kInfiniteCost when no
  /// alive center can reach every surviving referenced processor.
  /// `scratch` is caller-owned reusable storage.
  [[nodiscard]] Cost estimateCost(std::span<const ProcWeight> refs,
                                  std::vector<Cost>& scratch);

  /// Total data slots under an explicit per-processor capacity `perProc`
  /// (>= 0), honouring dead processors and fault capacity limits. Used by
  /// the selector's residual-capacity check.
  [[nodiscard]] std::int64_t capacitySlots(std::int64_t perProc) const;

 private:
  ArraySpec spec_;
  std::vector<std::string> injected_;
  std::unique_ptr<const ArrayModel> model_;  ///< null for the any-shape array
  std::string signature_;
  /// Reusable buffer for dead-proc-filtered reference strings.
  std::vector<ProcWeight> refsScratch_;
};

/// The fleet registry: a fixed set of ArrayStates built from specs, with
/// name lookup and shape-based eligibility. The *topology* is immutable
/// after construction (arrays never come or go mid-run, names and shapes
/// are fixed), but an array's fault state can drift while the daemon
/// runs: drift() swaps in a freshly built ArrayState under the caller's
/// lock. Per-array load lives in FleetService.
class ArrayFleet {
 public:
  /// An empty spec list builds the one any-shape array, named "default".
  explicit ArrayFleet(const std::vector<ArraySpec>& specs);

  [[nodiscard]] std::size_t size() const { return arrays_.size(); }
  [[nodiscard]] ArrayState& at(std::size_t i) { return *arrays_[i]; }
  [[nodiscard]] const ArrayState& at(std::size_t i) const {
    return *arrays_[i];
  }

  /// Index of the named array, -1 when absent.
  [[nodiscard]] int find(const std::string& name) const;

  /// Indices of arrays that can host a rows x cols job: exact shape match
  /// with at least one alive processor, or the any-shape array.
  /// Deterministic (ascending index).
  [[nodiscard]] std::vector<std::size_t> eligibleFor(int rows,
                                                     int cols) const;

  /// Live fault drift: rebuilds array `i` from its boot spec plus
  /// `injected` fault specs and swaps the new state in (an empty list
  /// heals the array back to its boot state). The swap invalidates any
  /// ArrayState reference previously taken for `i` — FleetService
  /// serialises all fleet access under its lock and copies the canonical
  /// fault list into each dispatched job, so nothing dangles. Throws
  /// std::invalid_argument (and leaves the array untouched) when a spec
  /// does not parse against the array's grid.
  void drift(std::size_t i, std::vector<std::string> injected);

 private:
  std::vector<std::unique_ptr<ArrayState>> arrays_;
};

}  // namespace pimsched::fleet
