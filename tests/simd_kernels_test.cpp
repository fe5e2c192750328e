#include "graph/simd/simd_kernels.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace pimsched {
namespace {

using simd::Kernels;
using simd::Tier;

// The AVX2 tier when the host can execute it; empty otherwise, in which
// case the identity tests vacuously pass (the scalar tier is its own
// oracle).
std::vector<Tier> vectorTiers() {
  std::vector<Tier> out;
  if (simd::tierSupported(Tier::kAvx2)) out.push_back(Tier::kAvx2);
  return out;
}

// Lengths chosen to hit every lane-count boundary: sub-vector, exact
// multiples, one-off either side, and the 4x4-block boundaries of the
// fused AVX2 chamfer strips.
const std::vector<std::size_t> kLengths = {1,  2,  3,  4,  5,  7,  8,  9,
                                           15, 16, 17, 31, 32, 33, 63, 65};

// Random cost with forbidden entries mixed in; `drift` additionally mixes
// in values just above kInfiniteCost (legal for the deferred-clamp passes).
Cost randomCost(testutil::Rng& rng, bool drift) {
  const std::uint64_t roll = rng.below(8);
  if (roll == 0) return kInfiniteCost;
  if (drift && roll == 1) {
    return kInfiniteCost + rng.range(1, 1000);
  }
  return rng.range(0, 5000);
}

std::vector<Cost> randomRow(testutil::Rng& rng, std::size_t n, bool drift) {
  std::vector<Cost> v(n);
  for (Cost& c : v) c = randomCost(rng, drift);
  return v;
}

std::string ctx(Tier t, std::size_t n) {
  return std::string(simd::tierName(t)) + " n=" + std::to_string(n);
}

TEST(SimdDispatch, TierNamesAndSupportAreConsistent) {
  EXPECT_STREQ(simd::tierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tierName(Tier::kAvx2), "avx2");
  // Scalar is unconditionally supported; bestSupportedTier is supported by
  // definition and at least scalar.
  EXPECT_TRUE(simd::tierSupported(Tier::kScalar));
  EXPECT_TRUE(simd::tierSupported(simd::bestSupportedTier()));
  EXPECT_GE(static_cast<int>(simd::bestSupportedTier()), 0);
}

TEST(SimdDispatch, EveryTableHasAllKernels) {
  for (const Tier t : {Tier::kScalar, Tier::kAvx2}) {
    const Kernels& k = simd::kernelsFor(t);
    EXPECT_NE(k.minPlusRow, nullptr);
    EXPECT_NE(k.chamferForwardStrip, nullptr);
    EXPECT_NE(k.chamferBackwardStrip, nullptr);
    EXPECT_NE(k.combineLayer, nullptr);
    EXPECT_NE(k.clampInf, nullptr);
    EXPECT_NE(k.maskInf, nullptr);
    EXPECT_NE(k.findPredecessor, nullptr);
  }
}

TEST(SimdDispatch, ForceTierInstallsAndRestores) {
  const Tier before = simd::activeTier();
  const Tier installed = simd::forceTier(Tier::kScalar);
  EXPECT_EQ(installed, Tier::kScalar);
  EXPECT_EQ(simd::activeTier(), Tier::kScalar);
  EXPECT_EQ(&simd::active(), &simd::kernelsFor(Tier::kScalar));
  // Unsupported requests clamp to a supported tier instead of crashing.
  const Tier clamped = simd::forceTier(Tier::kAvx2);
  EXPECT_TRUE(simd::tierSupported(clamped));
  EXPECT_EQ(simd::forceTier(before), before);
}

TEST(SimdKernelIdentity, MinPlusRow) {
  const Kernels& ref = simd::kernelsFor(Tier::kScalar);
  for (const Tier t : vectorTiers()) {
    const Kernels& k = simd::kernelsFor(t);
    testutil::Rng rng(7 + static_cast<std::uint64_t>(t));
    for (const std::size_t n : kLengths) {
      const std::vector<Cost> row = randomRow(rng, n, /*drift=*/false);
      const Cost add = rng.range(0, 3000);
      std::vector<Cost> a = randomRow(rng, n, /*drift=*/false);
      std::vector<Cost> b = a;
      ref.minPlusRow(row.data(), add, a.data(), n);
      k.minPlusRow(row.data(), add, b.data(), n);
      ASSERT_EQ(a, b) << ctx(t, n);
    }
  }
}

TEST(SimdKernelIdentity, ChamferStripsForwardAndBackward) {
  const Kernels& ref = simd::kernelsFor(Tier::kScalar);
  for (const Tier t : vectorTiers()) {
    const Kernels& k = simd::kernelsFor(t);
    testutil::Rng rng(17 + static_cast<std::uint64_t>(t));
    for (const std::size_t n : kLengths) {
      for (const std::size_t rows : {1u, 2u, 3u, 4u}) {
        // Strips from grid interiors are stride-separated, not contiguous.
        for (const std::size_t stride : {n, n + 5}) {
          for (const Cost beta : {Cost{0}, Cost{1}, Cost{9}}) {
            std::vector<Cost> strip(rows * stride);
            for (Cost& c : strip) c = randomCost(rng, /*drift=*/false);
            const std::vector<Cost> edge = randomRow(rng, n, false);
            for (const bool hasEdge : {false, true}) {
              const Cost* up = hasEdge ? edge.data() : nullptr;
              std::vector<Cost> a = strip;
              std::vector<Cost> b = strip;
              ref.chamferForwardStrip(a.data(), up, rows, stride, beta, n);
              k.chamferForwardStrip(b.data(), up, rows, stride, beta, n);
              ASSERT_EQ(a, b) << "fwd " << ctx(t, n) << " rows=" << rows
                              << " stride=" << stride << " beta=" << beta
                              << " edge=" << hasEdge;
              a = strip;
              b = strip;
              ref.chamferBackwardStrip(a.data(), up, rows, stride, beta, n);
              k.chamferBackwardStrip(b.data(), up, rows, stride, beta, n);
              ASSERT_EQ(a, b) << "bwd " << ctx(t, n) << " rows=" << rows
                              << " stride=" << stride << " beta=" << beta
                              << " edge=" << hasEdge;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelIdentity, CombineLayerAndClampInf) {
  const Kernels& ref = simd::kernelsFor(Tier::kScalar);
  for (const Tier t : vectorTiers()) {
    const Kernels& k = simd::kernelsFor(t);
    testutil::Rng rng(19 + static_cast<std::uint64_t>(t));
    for (const std::size_t n : kLengths) {
      const std::vector<Cost> relaxed = randomRow(rng, n, /*drift=*/true);
      const std::vector<Cost> own = randomRow(rng, n, /*drift=*/false);
      std::vector<Cost> a(n);
      std::vector<Cost> b(n);
      ref.combineLayer(relaxed.data(), own.data(), a.data(), n);
      k.combineLayer(relaxed.data(), own.data(), b.data(), n);
      ASSERT_EQ(a, b) << ctx(t, n);

      std::vector<Cost> c = randomRow(rng, n, /*drift=*/true);
      std::vector<Cost> d = c;
      ref.clampInf(c.data(), n);
      k.clampInf(d.data(), n);
      ASSERT_EQ(c, d) << ctx(t, n);
    }
  }
}

TEST(SimdKernelIdentity, MaskInf) {
  const Kernels& ref = simd::kernelsFor(Tier::kScalar);
  for (const Tier t : vectorTiers()) {
    const Kernels& k = simd::kernelsFor(t);
    testutil::Rng rng(23 + static_cast<std::uint64_t>(t));
    for (const std::size_t n : kLengths) {
      std::vector<unsigned char> forbidden(n);
      for (unsigned char& f : forbidden) {
        f = static_cast<unsigned char>(rng.below(2));
      }
      std::vector<Cost> a = randomRow(rng, n, /*drift=*/false);
      std::vector<Cost> b = a;
      ref.maskInf(forbidden.data(), a.data(), n);
      k.maskInf(forbidden.data(), b.data(), n);
      ASSERT_EQ(a, b) << ctx(t, n);
    }
  }
}

TEST(SimdKernelIdentity, FindPredecessor) {
  const Kernels& ref = simd::kernelsFor(Tier::kScalar);
  for (const Tier t : vectorTiers()) {
    const Kernels& k = simd::kernelsFor(t);
    testutil::Rng rng(29 + static_cast<std::uint64_t>(t));
    for (const std::size_t n : kLengths) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<Cost> prev = randomRow(rng, n, /*drift=*/false);
        std::vector<Cost> trans(n);
        for (Cost& c : trans) c = rng.range(0, 200);
        const Cost tMax = rng.range(1, 250);
        // Half the trials probe a sum that actually occurs (planting a
        // duplicate ahead of it exercises the smallest-index tie-break);
        // the rest probe an unlikely value, usually returning -1.
        Cost need = rng.range(0, 400);
        if (trial % 2 == 0) {
          const std::size_t i = rng.below(n);
          prev[i] = rng.range(0, 100);
          trans[i] = rng.range(0, tMax - 1);
          need = prev[i] + trans[i];
          if (i + 1 < n && rng.below(2) == 0) {
            prev[i + 1] = prev[i];
            trans[i + 1] = trans[i];
          }
        }
        const std::ptrdiff_t a =
            ref.findPredecessor(prev.data(), trans.data(), need, tMax, n);
        const std::ptrdiff_t b =
            k.findPredecessor(prev.data(), trans.data(), need, tMax, n);
        ASSERT_EQ(a, b) << ctx(t, n) << " trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace pimsched
