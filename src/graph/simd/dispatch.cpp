#include "graph/simd/simd_kernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "graph/simd/kernels_impl.hpp"
#include "obs/obs.hpp"

namespace pimsched::simd {

namespace {

const Kernels* tierTable(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return detail::avx2Kernels();
    case Tier::kScalar:
      return &detail::scalarKernels();
  }
  return nullptr;
}

bool cpuSupports(Tier t) {
#if defined(__x86_64__) || defined(__i386__)
  switch (t) {
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Tier::kScalar:
      return true;
  }
#endif
  return t == Tier::kScalar;
}

/// The PIMSCHED_SIMD override; *present stays false when it is unset or
/// unrecognized (an unrecognized name warns; resolution then proceeds as
/// if unset).
Tier envOverride(bool* present) {
  *present = false;
  const char* raw = std::getenv("PIMSCHED_SIMD");
  if (raw == nullptr || raw[0] == '\0') return Tier::kScalar;
  if (std::strcmp(raw, "scalar") == 0) {
    *present = true;
    return Tier::kScalar;
  }
  if (std::strcmp(raw, "avx2") == 0) {
    *present = true;
    return Tier::kAvx2;
  }
  std::fprintf(stderr,
               "pimsched: PIMSCHED_SIMD=%s is not scalar|avx2; "
               "using CPU detection\n",
               raw);
  return Tier::kScalar;
}

/// Strongest tier <= `want` that both this build and this CPU can run.
Tier clampToSupported(Tier want) {
  for (int t = static_cast<int>(want); t > 0; --t) {
    const Tier tier = static_cast<Tier>(t);
    if (cpuSupports(tier) && tierTable(tier) != nullptr) return tier;
  }
  return Tier::kScalar;
}

Tier resolveInitialTier() {
  bool present = false;
  const Tier want = envOverride(&present);
  if (present) {
    const Tier got = clampToSupported(want);
    if (got != want) {
      std::fprintf(stderr,
                   "pimsched: PIMSCHED_SIMD=%s unsupported on this "
                   "host/build; falling back to %s\n",
                   tierName(want), tierName(got));
    }
    return got;
  }
  return clampToSupported(Tier::kAvx2);
}

/// Counter names are dynamic here, so go through the registry instead of
/// PIMSCHED_COUNTER_ADD (which caches one handle per call site).
void recordTierCounter(Tier t) {
#ifndef PIMSCHED_NO_OBS
  obs::Registry::instance()
      .counter(std::string("gomcds.simd.tier.") + tierName(t))
      .add(1);
#else
  (void)t;
#endif
}

/// The resolved tier, encoded as int(t)+1 so 0 means "not yet resolved".
std::atomic<int> g_activeTier{0};

Tier resolveOnce() {
  int cur = g_activeTier.load(std::memory_order_acquire);
  if (cur == 0) {
    const Tier resolved = resolveInitialTier();
    int expected = 0;
    if (g_activeTier.compare_exchange_strong(
            expected, static_cast<int>(resolved) + 1,
            std::memory_order_acq_rel)) {
      recordTierCounter(resolved);
      cur = static_cast<int>(resolved) + 1;
    } else {
      cur = expected;  // another thread resolved first
    }
  }
  return static_cast<Tier>(cur - 1);
}

}  // namespace

const char* tierName(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      return "scalar";
  }
  return "scalar";
}

bool tierSupported(Tier t) {
  return cpuSupports(t) && tierTable(t) != nullptr;
}

Tier bestSupportedTier() { return clampToSupported(Tier::kAvx2); }

const Kernels& kernelsFor(Tier t) { return *tierTable(clampToSupported(t)); }

Tier activeTier() { return resolveOnce(); }

const Kernels& active() { return *tierTable(resolveOnce()); }

Tier forceTier(Tier t) {
  const Tier got = clampToSupported(t);
  g_activeTier.store(static_cast<int>(got) + 1, std::memory_order_release);
  recordTierCounter(got);
  return got;
}

}  // namespace pimsched::simd
