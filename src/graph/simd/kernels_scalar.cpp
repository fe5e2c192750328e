#include "graph/simd/kernels_impl.hpp"

/// Portable tier: the reference semantics every vector tier must reproduce
/// bit-for-bit. Loops are branch-free (single compare-select per element)
/// so compilers auto-vectorize them where profitable — this is also the
/// NEON-compatible path until an explicit ARM tier exists.
namespace pimsched::simd::detail {

namespace {

void minPlusRowScalar(const Cost* row, Cost add, Cost* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Cost cand = add + row[i];
    acc[i] = cand < acc[i] ? cand : acc[i];
  }
}

/// dst[i] = min(dst[i], src[i] + beta): the vertical stage of the chamfer
/// strips (values may drift past kInfiniteCost; the solver clamps later).
void addMinRowScalar(const Cost* src, Cost beta, Cost* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Cost cand = src[i] + beta;
    dst[i] = cand < dst[i] ? cand : dst[i];
  }
}

// The in-row scans are serial dependency chains (add + compare-select per
// element), so a single row runs at the chain latency. After the vertical
// stage the rows are independent; interleaving four of them keeps four
// chains in flight and the core throughput-bound instead. Each chain is
// the exact sequential recurrence — element order within a row is
// unchanged — so results are bit-identical to scanning rows one at a time.

void prefixMinPlusRows(Cost* h, std::size_t rows, std::size_t stride,
                       Cost beta, std::size_t n) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    Cost* r0 = h + r * stride;
    Cost* r1 = r0 + stride;
    Cost* r2 = r1 + stride;
    Cost* r3 = r2 + stride;
    for (std::size_t i = 1; i < n; ++i) {
      const Cost c0 = r0[i - 1] + beta;
      const Cost c1 = r1[i - 1] + beta;
      const Cost c2 = r2[i - 1] + beta;
      const Cost c3 = r3[i - 1] + beta;
      r0[i] = c0 < r0[i] ? c0 : r0[i];
      r1[i] = c1 < r1[i] ? c1 : r1[i];
      r2[i] = c2 < r2[i] ? c2 : r2[i];
      r3[i] = c3 < r3[i] ? c3 : r3[i];
    }
  }
  for (; r < rows; ++r) {
    Cost* row = h + r * stride;
    for (std::size_t i = 1; i < n; ++i) {
      const Cost cand = row[i - 1] + beta;
      row[i] = cand < row[i] ? cand : row[i];
    }
  }
}

void suffixMinPlusRows(Cost* h, std::size_t rows, std::size_t stride,
                       Cost beta, std::size_t n) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    Cost* r0 = h + r * stride;
    Cost* r1 = r0 + stride;
    Cost* r2 = r1 + stride;
    Cost* r3 = r2 + stride;
    for (std::size_t i = n; i-- > 1;) {
      const Cost c0 = r0[i] + beta;
      const Cost c1 = r1[i] + beta;
      const Cost c2 = r2[i] + beta;
      const Cost c3 = r3[i] + beta;
      r0[i - 1] = c0 < r0[i - 1] ? c0 : r0[i - 1];
      r1[i - 1] = c1 < r1[i - 1] ? c1 : r1[i - 1];
      r2[i - 1] = c2 < r2[i - 1] ? c2 : r2[i - 1];
      r3[i - 1] = c3 < r3[i - 1] ? c3 : r3[i - 1];
    }
  }
  for (; r < rows; ++r) {
    Cost* row = h + r * stride;
    for (std::size_t i = n; i-- > 1;) {
      const Cost cand = row[i] + beta;
      row[i - 1] = cand < row[i - 1] ? cand : row[i - 1];
    }
  }
}

void chamferForwardStripScalar(Cost* h, const Cost* up, std::size_t rows,
                               std::size_t stride, Cost beta,
                               std::size_t n) {
  const Cost* above = up;
  for (std::size_t r = 0; r < rows; ++r) {
    Cost* row = h + r * stride;
    if (above != nullptr) addMinRowScalar(above, beta, row, n);
    above = row;
  }
  prefixMinPlusRows(h, rows, stride, beta, n);
}

void chamferBackwardStripScalar(Cost* h, const Cost* down, std::size_t rows,
                                std::size_t stride, Cost beta,
                                std::size_t n) {
  const Cost* below = down;
  for (std::size_t r = rows; r-- > 0;) {
    Cost* row = h + r * stride;
    if (below != nullptr) addMinRowScalar(below, beta, row, n);
    below = row;
  }
  suffixMinPlusRows(h, rows, stride, beta, n);
}

void combineLayerScalar(const Cost* relaxed, const Cost* own, Cost* out,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Cost a = relaxed[i] < kInfiniteCost ? relaxed[i] : kInfiniteCost;
    const Cost b = own[i];
    const Cost sum = a + (b < kInfiniteCost ? b : 0);
    out[i] = (a >= kInfiniteCost || b >= kInfiniteCost) ? kInfiniteCost : sum;
  }
}

void clampInfScalar(Cost* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = v[i] < kInfiniteCost ? v[i] : kInfiniteCost;
  }
}

void maskInfScalar(const unsigned char* forbidden, Cost* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = forbidden[i] ? kInfiniteCost : v[i];
  }
}

std::ptrdiff_t findPredecessorScalar(const Cost* prev, const Cost* trans,
                                     Cost need, Cost tMax, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (prev[i] < kInfiniteCost && trans[i] < tMax &&
        prev[i] + trans[i] == need) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

}  // namespace

const Kernels& scalarKernels() {
  static const Kernels k{
      minPlusRowScalar,   chamferForwardStripScalar, chamferBackwardStripScalar,
      combineLayerScalar, clampInfScalar,            maskInfScalar,
      findPredecessorScalar,
  };
  return k;
}

}  // namespace pimsched::simd::detail
