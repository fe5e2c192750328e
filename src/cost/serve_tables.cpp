#include "cost/serve_tables.hpp"

#include <algorithm>

#include "cost/center_costs.hpp"
#include "obs/obs.hpp"

namespace pimsched {

std::uint64_t referenceStringHash(std::span<const ProcWeight> refs) {
  std::uint64_t h = kRowHashSeed;
  rowHashMixPairs(h, refs);
  return h;
}

ServeTables::ServeTables(const WindowedRefs& refs, const CostModel& model,
                         std::uint64_t hashMask)
    : refs_(&refs), model_(&model), hashMask_(hashMask) {}

bool ServeTables::costsInto(std::span<const ProcWeight> string,
                            std::span<Cost> out) {
  const std::uint64_t hash = referenceStringHash(string) & hashMask_;
  Shard& shard = shards_[hash % kShards];
  const Entry* found = nullptr;
  bool hit = true;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<std::unique_ptr<Entry>>& bucket = shard.buckets[hash];
    for (const std::unique_ptr<Entry>& entry : bucket) {
      if (std::equal(entry->key.begin(), entry->key.end(), string.begin(),
                     string.end())) {
        found = entry.get();
        break;
      }
    }
    if (found == nullptr) {
      // Computing under the shard lock deduplicates concurrent misses of
      // the same string (the second worker waits, then hits).
      auto fresh = std::make_unique<Entry>();
      fresh->key.assign(string.begin(), string.end());
      separableCenterCostsInto(*model_, string, fresh->costs);
      found = fresh.get();
      bucket.push_back(std::move(fresh));
      hit = false;
    }
  }
  // Published entries never move or change, so the copy-out needs no lock.
  std::copy(found->costs.begin(), found->costs.end(), out.begin());
  if (hit) {
    PIMSCHED_COUNTER_ADD("cost.center_cache.hit", 1);
  } else {
    PIMSCHED_COUNTER_ADD("cost.center_cache.miss", 1);
  }
  return hit;
}

void ServeTables::datumInto(DataId d, CostBuffer& out) {
  const std::size_t P = static_cast<std::size_t>(refs_->numProcs());
  out.resize(static_cast<std::size_t>(refs_->numWindows()) * P);
  for (WindowId w = 0; w < refs_->numWindows(); ++w) {
    rowInto(d, w,
            std::span<Cost>(out.data() + static_cast<std::size_t>(w) * P, P));
  }
}

}  // namespace pimsched
