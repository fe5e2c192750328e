#include "graph/simd/kernels_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

/// 256-bit tier (this file alone is compiled with -mavx2; the guard keeps a
/// baseline build linking). Four 64-bit lanes per op, native signed 64-bit
/// compare. The chamfer strips vectorize across four rows via 4x4
/// transposes, with the vertical relax fused into the same pass (see
/// chamferForwardStripAvx2); every relax consumes already-relaxed operands
/// only, so results are bit-identical to the scalar tier. Candidate
/// magnitudes are bounded exactly as in the sequential formulation, which
/// the beta bound (maxChamferBeta) keeps below INT64_MAX.
namespace pimsched::simd::detail {

namespace {

inline __m256i min64(__m256i a, __m256i b) {
  // Pick b in the lanes where a > b.
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

inline __m256i infVec() { return _mm256_set1_epi64x(kInfiniteCost); }

void minPlusRowAvx2(const Cost* row, Cost add, Cost* acc, std::size_t n) {
  const __m256i vAdd = _mm256_set1_epi64x(add);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        min64(a, _mm256_add_epi64(r, vAdd)));
  }
  for (; i < n; ++i) {
    const Cost cand = add + row[i];
    acc[i] = cand < acc[i] ? cand : acc[i];
  }
}

/// Vertical stage of the short chamfer strips (the scalar addMinRow).
void addMinRowAvx2(const Cost* src, Cost beta, Cost* dst, std::size_t n) {
  const __m256i vBeta = _mm256_set1_epi64x(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        min64(d, _mm256_add_epi64(s, vBeta)));
  }
  for (; i < n; ++i) {
    const Cost cand = src[i] + beta;
    dst[i] = cand < dst[i] ? cand : dst[i];
  }
}

/// 4x4 transpose of 64-bit lanes; an involution, so the same helper maps
/// row vectors to column vectors and back.
inline void transpose4(__m256i a, __m256i b, __m256i c, __m256i d,
                       __m256i& o0, __m256i& o1, __m256i& o2, __m256i& o3) {
  const __m256i t0 = _mm256_unpacklo_epi64(a, b);  // a0 b0 a2 b2
  const __m256i t1 = _mm256_unpackhi_epi64(a, b);  // a1 b1 a3 b3
  const __m256i t2 = _mm256_unpacklo_epi64(c, d);
  const __m256i t3 = _mm256_unpackhi_epi64(c, d);
  o0 = _mm256_permute2x128_si256(t0, t2, 0x20);
  o1 = _mm256_permute2x128_si256(t1, t3, 0x20);
  o2 = _mm256_permute2x128_si256(t0, t2, 0x31);
  o3 = _mm256_permute2x128_si256(t1, t3, 0x31);
}

// The chamfer strips fuse the vertical relax and the in-row sweep into a
// single pass over the strip: per 4x4 block the four row vectors are
// relaxed downward in registers (plain vector ops — lanes are columns),
// transposed so each vector holds one column of four rows, swept column by
// column with the carry from the previous block, and transposed back. A
// cell's candidate set is { v(r',c') + beta*(dr+dc) : r' <= r, c' <= c }
// under every such schedule — each relax only consumes already-relaxed
// operands — so values are bit-identical to the scalar reference order.

void chamferForwardStripAvx2(Cost* h, const Cost* up, std::size_t rows,
                             std::size_t stride, Cost beta, std::size_t n) {
  const __m256i vBeta = _mm256_set1_epi64x(beta);
  const __m256i vBeta2 = _mm256_set1_epi64x(2 * beta);
  const __m256i vBeta3 = _mm256_set1_epi64x(3 * beta);
  const __m256i vBeta4 = _mm256_set1_epi64x(4 * beta);
  if (rows == 4) {
    Cost* r0 = h;
    Cost* r1 = r0 + stride;
    Cost* r2 = r1 + stride;
    Cost* r3 = r2 + stride;
    std::size_t i = 0;
    __m256i carry{};
    for (; i + 4 <= n; i += 4) {
      __m256i a = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r0 + i));
      __m256i b = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r1 + i));
      __m256i c = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r2 + i));
      __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r3 + i));
      if (up != nullptr) {
        const __m256i u =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(up + i));
        a = min64(a, _mm256_add_epi64(u, vBeta));
      }
      // Vertical relax in log depth: k*beta sums stay exact (integer
      // addition is associative), so candidates equal the sequential
      // chain's bit for bit.
      const __m256i b1 = min64(b, _mm256_add_epi64(a, vBeta));
      const __m256i d1 = min64(d, _mm256_add_epi64(c, vBeta));
      c = min64(c, _mm256_add_epi64(b1, vBeta));
      d = min64(d1, _mm256_add_epi64(b1, vBeta2));
      b = b1;
      __m256i t0, t1, t2, t3;
      transpose4(a, b, c, d, t0, t1, t2, t3);
      // Reduce-then-scan: block-internal prefixes first (off the critical
      // path), then one add+min per block on the carry chain — the chain's
      // latency, not memory, bounds this loop.
      const __m256i q1 = min64(t1, _mm256_add_epi64(t0, vBeta));
      const __m256i q3 = min64(t3, _mm256_add_epi64(t2, vBeta));
      const __m256i p2 = min64(t2, _mm256_add_epi64(q1, vBeta));
      const __m256i p3 = min64(q3, _mm256_add_epi64(q1, vBeta2));
      if (i > 0) {
        t0 = min64(t0, _mm256_add_epi64(carry, vBeta));
        t1 = min64(q1, _mm256_add_epi64(carry, vBeta2));
        t2 = min64(p2, _mm256_add_epi64(carry, vBeta3));
        t3 = min64(p3, _mm256_add_epi64(carry, vBeta4));
      } else {
        t1 = q1;
        t2 = p2;
        t3 = p3;
      }
      carry = t3;
      transpose4(t0, t1, t2, t3, a, b, c, d);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r0 + i), a);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r1 + i), b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r2 + i), c);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r3 + i), d);
    }
    // Column tail in raster order: the row above a tail cell is fully
    // final by then, which per the candidate-set argument leaves values
    // unchanged.
    for (std::size_t r = 0; r < 4; ++r) {
      Cost* row = h + r * stride;
      const Cost* above = r == 0 ? up : row - stride;
      for (std::size_t j = i; j < n; ++j) {
        if (above != nullptr) {
          const Cost cand = above[j] + beta;
          row[j] = cand < row[j] ? cand : row[j];
        }
        if (j > 0) {
          const Cost cand = row[j - 1] + beta;
          row[j] = cand < row[j] ? cand : row[j];
        }
      }
    }
    return;
  }
  // Short strip (grid bottom when R % 4 != 0): vertical stage, then each
  // row's own chain.
  const Cost* above = up;
  for (std::size_t r = 0; r < rows; ++r) {
    Cost* row = h + r * stride;
    if (above != nullptr) addMinRowAvx2(above, beta, row, n);
    above = row;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    Cost* row = h + r * stride;
    for (std::size_t j = 1; j < n; ++j) {
      const Cost cand = row[j - 1] + beta;
      row[j] = cand < row[j] ? cand : row[j];
    }
  }
}

void chamferBackwardStripAvx2(Cost* h, const Cost* down, std::size_t rows,
                              std::size_t stride, Cost beta, std::size_t n) {
  const __m256i vBeta = _mm256_set1_epi64x(beta);
  const __m256i vBeta2 = _mm256_set1_epi64x(2 * beta);
  const __m256i vBeta3 = _mm256_set1_epi64x(3 * beta);
  const __m256i vBeta4 = _mm256_set1_epi64x(4 * beta);
  if (rows == 4) {
    Cost* r0 = h;
    Cost* r1 = r0 + stride;
    Cost* r2 = r1 + stride;
    Cost* r3 = r2 + stride;
    // Vector blocks cover columns [rem, n) right to left; the head
    // [0, rem) finishes in reverse raster order below.
    const std::size_t rem = n % 4;
    const std::size_t nBlocks = n / 4;
    __m256i carry{};
    for (std::size_t blk = 0; blk < nBlocks; ++blk) {
      const std::size_t i = n - 4 - 4 * blk;
      __m256i a = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r0 + i));
      __m256i b = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r1 + i));
      __m256i c = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r2 + i));
      __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(r3 + i));
      if (down != nullptr) {
        const __m256i u =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(down + i));
        d = min64(d, _mm256_add_epi64(u, vBeta));
      }
      // Mirror of the forward strip: log-depth vertical relax upward.
      const __m256i c1 = min64(c, _mm256_add_epi64(d, vBeta));
      const __m256i a1 = min64(a, _mm256_add_epi64(b, vBeta));
      b = min64(b, _mm256_add_epi64(c1, vBeta));
      a = min64(a1, _mm256_add_epi64(c1, vBeta2));
      c = c1;
      __m256i t0, t1, t2, t3;
      transpose4(a, b, c, d, t0, t1, t2, t3);
      // Reduce-then-scan, right to left: internal suffixes, then one
      // add+min per block on the carry chain.
      const __m256i q2 = min64(t2, _mm256_add_epi64(t3, vBeta));
      const __m256i q0 = min64(t0, _mm256_add_epi64(t1, vBeta));
      const __m256i p1 = min64(t1, _mm256_add_epi64(q2, vBeta));
      const __m256i p0 = min64(q0, _mm256_add_epi64(q2, vBeta2));
      if (blk > 0) {
        t3 = min64(t3, _mm256_add_epi64(carry, vBeta));
        t2 = min64(q2, _mm256_add_epi64(carry, vBeta2));
        t1 = min64(p1, _mm256_add_epi64(carry, vBeta3));
        t0 = min64(p0, _mm256_add_epi64(carry, vBeta4));
      } else {
        t2 = q2;
        t1 = p1;
        t0 = p0;
      }
      carry = t0;
      transpose4(t0, t1, t2, t3, a, b, c, d);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r0 + i), a);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r1 + i), b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r2 + i), c);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r3 + i), d);
    }
    const std::size_t head = nBlocks > 0 ? rem : n;
    for (std::size_t r = 4; r-- > 0;) {
      Cost* row = h + r * stride;
      const Cost* below = r == 3 ? down : row + stride;
      for (std::size_t j = head; j-- > 0;) {
        if (below != nullptr) {
          const Cost cand = below[j] + beta;
          row[j] = cand < row[j] ? cand : row[j];
        }
        if (j + 1 < n) {
          const Cost cand = row[j + 1] + beta;
          row[j] = cand < row[j] ? cand : row[j];
        }
      }
    }
    return;
  }
  const Cost* below = down;
  for (std::size_t r = rows; r-- > 0;) {
    Cost* row = h + r * stride;
    if (below != nullptr) addMinRowAvx2(below, beta, row, n);
    below = row;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    Cost* row = h + r * stride;
    for (std::size_t j = n; j-- > 1;) {
      const Cost cand = row[j] + beta;
      row[j - 1] = cand < row[j - 1] ? cand : row[j - 1];
    }
  }
}

void combineLayerAvx2(const Cost* relaxed, const Cost* own, Cost* out,
                      std::size_t n) {
  const __m256i vInf = infVec();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(relaxed + i));
    const __m256i o =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(own + i));
    const __m256i bothFin = _mm256_and_si256(_mm256_cmpgt_epi64(vInf, r),
                                             _mm256_cmpgt_epi64(vInf, o));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_blendv_epi8(vInf, _mm256_add_epi64(r, o), bothFin));
  }
  for (; i < n; ++i) {
    const Cost a = relaxed[i] < kInfiniteCost ? relaxed[i] : kInfiniteCost;
    const Cost b = own[i];
    const Cost sum = a + (b < kInfiniteCost ? b : 0);
    out[i] = (a >= kInfiniteCost || b >= kInfiniteCost) ? kInfiniteCost : sum;
  }
}

void clampInfAvx2(Cost* v, std::size_t n) {
  const __m256i vInf = infVec();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i), min64(x, vInf));
  }
  for (; i < n; ++i) v[i] = v[i] < kInfiniteCost ? v[i] : kInfiniteCost;
}

void maskInfAvx2(const unsigned char* forbidden, Cost* v, std::size_t n) {
  const __m256i vInf = infVec();
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t fourBytes;
    std::memcpy(&fourBytes, forbidden + i, sizeof fourBytes);
    const __m256i fb = _mm256_cvtepu8_epi64(
        _mm_cvtsi32_si128(static_cast<int>(fourBytes)));
    const __m256i allowed = _mm256_cmpeq_epi64(fb, zero);
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i),
                        _mm256_blendv_epi8(vInf, x, allowed));
  }
  for (; i < n; ++i) v[i] = forbidden[i] ? kInfiniteCost : v[i];
}

std::ptrdiff_t findPredecessorAvx2(const Cost* prev, const Cost* trans,
                                   Cost need, Cost tMax, std::size_t n) {
  const __m256i vInf = infVec();
  const __m256i vMax = _mm256_set1_epi64x(tMax);
  const __m256i vNeed = _mm256_set1_epi64x(need);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(trans + i));
    const __m256i hit = _mm256_and_si256(
        _mm256_and_si256(_mm256_cmpgt_epi64(vInf, p),
                         _mm256_cmpgt_epi64(vMax, t)),
        _mm256_cmpeq_epi64(_mm256_add_epi64(p, t), vNeed));
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(hit));
    if (mask != 0) {
      return static_cast<std::ptrdiff_t>(i) + __builtin_ctz(mask);
    }
  }
  for (; i < n; ++i) {
    if (prev[i] < kInfiniteCost && trans[i] < tMax &&
        prev[i] + trans[i] == need) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

}  // namespace

const Kernels* avx2Kernels() {
  static const Kernels k{
      minPlusRowAvx2,   chamferForwardStripAvx2, chamferBackwardStripAvx2,
      combineLayerAvx2, clampInfAvx2,            maskInfAvx2,
      findPredecessorAvx2,
  };
  return &k;
}

}  // namespace pimsched::simd::detail

#else  // built without AVX2 codegen

namespace pimsched::simd::detail {
const Kernels* avx2Kernels() { return nullptr; }
}  // namespace pimsched::simd::detail

#endif
