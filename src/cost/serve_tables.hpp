#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"
#include "util/aligned.hpp"

namespace pimsched {

/// FNV-1a over the (proc, weight) pairs of a reference string. Serving
/// cost depends only on this string (plus the grid and hopCost fixed per
/// provider), so equal strings — which matmul / LU kernels produce for
/// many data — share one cost table.
[[nodiscard]] std::uint64_t referenceStringHash(
    std::span<const ProcWeight> refs);

/// The serving-cost tables of one scheduling call: the cost of a reference
/// string at every processor (Algorithm 1 lines 2-4), for the (datum,
/// window) strings of `refs` and for strings the caller merges from them
/// (SCDS, replication). Every scheduler that sweeps whole (datum, window)
/// tables reads them here; rows whose strings rarely repeat within a call
/// (incremental churn, repair, fleet estimates) call
/// separableCenterCostsInto directly, and a healthy-mesh GOMCDS screen
/// miss sums the marginals its separable solve already computed
/// (detail::LayerKernel::serveFromMarginals).
///
/// Each distinct string is computed once per provider, by
/// separableCenterCostsInto, and copied out afterwards. Thread-safe: the
/// memo is sharded 16 ways by hash and a miss computes while holding only
/// its shard, which also deduplicates concurrent misses of one string.
/// Entries bucket by hash but store the full key, and a lookup compares
/// the strings, so colliding hashes still get their own tables. Published
/// entries are heap-stable and immutable, so the hit path copies the table
/// out after dropping the shard lock. Shards are cache-line aligned so two
/// shards' mutexes never share a line.
///
/// Counters: `cost.center_cache.hit` / `cost.center_cache.miss`, one per
/// lookup.
class ServeTables {
 public:
  /// `hashMask` is AND-ed onto every computed hash. The default keeps the
  /// full 64 bits; tests pass a narrow mask to force distinct strings onto
  /// colliding hashes and exercise the full-key comparison. `refs` and
  /// `model` must outlive the provider.
  ServeTables(const WindowedRefs& refs, const CostModel& model,
              std::uint64_t hashMask = ~0ull);

  [[nodiscard]] const WindowedRefs& refs() const { return *refs_; }

  /// Writes the cost table of `string` into `out`, which must hold exactly
  /// one entry per processor. Returns true on a memo hit, false when the
  /// table had to be computed (and was inserted).
  bool costsInto(std::span<const ProcWeight> string, std::span<Cost> out);

  /// costsInto for datum d's window-w reference string.
  bool rowInto(DataId d, WindowId w, std::span<Cost> out) {
    return costsInto(refs_->refs(d, w), out);
  }

  /// Datum d's flat W x P table (row w at offset w * P), resized to fit.
  void datumInto(DataId d, CostBuffer& out);

 private:
  struct Entry {
    std::vector<ProcWeight> key;
    std::vector<Cost> costs;
  };
  struct alignas(64) Shard {
    std::mutex mutex;
    /// hash -> entries whose (masked) hash equals it; usually one. Held by
    /// pointer so a published Entry never moves — lookups may read it
    /// after releasing the shard lock.
    std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Entry>>>
        buckets;
  };
  static constexpr std::size_t kShards = 16;

  const WindowedRefs* refs_;
  const CostModel* model_;
  std::uint64_t hashMask_;
  std::array<Shard, kShards> shards_;
};

}  // namespace pimsched
