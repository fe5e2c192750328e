#include "graph/layered_dag.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/mesh_links.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace pimsched {

namespace {

/// Backward path reconstruction shared by every kernel: given the dp table
/// (dp[w * N + p] = best cost of a prefix ending with node p in layer w),
/// walk from the best final node to the front, picking at each step the
/// smallest predecessor q that attains dp[w][p] == dp[w-1][q] + trans(q,p) +
/// node(w,p). `scanPrev(prevRow, cur, target, own)` performs that argmin
/// scan and returns -1 when nothing attains the target; it is a statically
/// dispatched callable, so the scan loops stay free of indirect calls.
///
/// Every scanner below matches the reference condition
///   satAdd(satAdd(prevRow[q], trans(q, cur)), own) == target
/// exactly. Since target < kInfiniteCost here, own is finite too, and the
/// condition reduces to: both terms finite and prevRow[q] + trans == target
/// - own — a single add per candidate instead of two saturating adds.
///
/// `parents`, when non-null, memoizes the scans: a cached entry >= 0 is
/// used verbatim (it is the pure-function result of an earlier scan over
/// the same dp rows — the resume entry points invalidate entries whose
/// rows changed), and every fresh scan is stored back. Since the scan is
/// deterministic, cache hits and misses pick identical predecessors.
template <class ScanFn>
void reconstructFlat(int numLayers, int numNodes, const Cost* dp,
                     const Cost* nodeCosts, const ScanFn& scanPrev,
                     std::int32_t* parents, LayeredPath& out) {
  const std::size_t n = static_cast<std::size_t>(numNodes);
  const Cost* last = dp + static_cast<std::size_t>(numLayers - 1) * n;
  const Cost* best = std::min_element(last, last + n);
  out.nodes.clear();
  out.total = *best;
  if (out.total >= kInfiniteCost) return;

  out.nodes.assign(static_cast<std::size_t>(numLayers), 0);
  int cur = static_cast<int>(best - last);
  out.nodes[static_cast<std::size_t>(numLayers - 1)] = cur;
  for (int w = numLayers - 1; w > 0; --w) {
    const std::size_t row = static_cast<std::size_t>(w) * n;
    int prev = parents ? parents[row + static_cast<std::size_t>(cur)] : -1;
    if (prev < 0) {
      const Cost target = dp[row + static_cast<std::size_t>(cur)];
      const Cost own = nodeCosts[row + static_cast<std::size_t>(cur)];
      prev = scanPrev(dp + row - n, cur, target, own);
      if (prev < 0) {
        throw std::logic_error("LayeredDagSolver: path reconstruction failed");
      }
      if (parents) {
        parents[row + static_cast<std::size_t>(cur)] =
            static_cast<std::int32_t>(prev);
      }
    }
    cur = prev;
    out.nodes[static_cast<std::size_t>(w - 1)] = cur;
  }
}

/// Prepares a predecessor cache for a resume solve. The predecessor of
/// (w, p) reads only dp row w - 1, and the re-relaxed rows are
/// [fromLayer, numLayers), so entries for layers [fromLayer + 1,
/// numLayers) are dropped and row fromLayer's stay; a wrong-sized cache is
/// rebuilt empty, which is always safe since every entry is recomputed on
/// demand. Returns the raw table, or nullptr when no cache was supplied.
std::int32_t* resetParentCache(LayeredParentCache* parents, int fromLayer,
                               int numLayers, std::size_t n) {
  if (parents == nullptr) return nullptr;
  const std::size_t ln = static_cast<std::size_t>(numLayers) * n;
  if (parents->size() != ln) {
    parents->assign(ln, -1);
  } else {
    // Layer-0 entries are never read, so a cold start also keeps row 0.
    const std::size_t first = std::min(
        static_cast<std::size_t>(std::max(fromLayer + 1, 1)) * n, ln);
    std::fill(parents->begin() + static_cast<std::ptrdiff_t>(first),
              parents->end(), -1);
  }
  return parents->data();
}

/// The chamfer entry points' beta precondition: 0 <= beta <=
/// maxChamferBeta(grid), which keeps the branch-free sweeps' drift above
/// kInfiniteCost from overflowing before the deferred clamp.
void checkChamferBeta(const Grid& grid, Cost beta, const char* who) {
  if (beta < 0) throw std::invalid_argument(std::string(who) + ": beta < 0");
  if (beta > maxChamferBeta(grid)) {
    throw std::invalid_argument(
        std::string(who) + ": beta " + std::to_string(beta) +
        " exceeds the bound " + std::to_string(maxChamferBeta(grid)) +
        " of a " + std::to_string(grid.rows()) + "x" +
        std::to_string(grid.cols()) + " grid");
  }
}

/// One Gauss-Seidel iteration of the faulted-mesh relax over the R x C
/// grid `h`: a forward pass over the rows top-down (relax from N, then
/// in-row from W, then from E) and a backward pass bottom-up (from S, then
/// W, then E). A candidate counts only through a live incoming link.
/// `step` is min(beta, kInfiniteCost) and every value of `h` stays at or
/// below kInfiniteCost, so no candidate sum can overflow.
void meshSweep(const std::uint8_t* masks, int R, int C, Cost step, Cost* h) {
  const std::size_t cs = static_cast<std::size_t>(C);
  // Branch-free: a dead link offers kInfiniteCost, which never lowers a
  // value.
  const auto offer = [step](Cost& v, bool live, Cost src) {
    const Cost cand = live ? src + step : kInfiniteCost;
    v = cand < v ? cand : v;
  };
  const auto rowScans = [&](Cost* row, const std::uint8_t* m) {
    for (int c = 1; c < C; ++c) {
      offer(row[c], (m[c] & MeshLinks::kFromW) != 0, row[c - 1]);
    }
    for (int c = C - 2; c >= 0; --c) {
      offer(row[c], (m[c] & MeshLinks::kFromE) != 0, row[c + 1]);
    }
  };
  for (int r = 0; r < R; ++r) {
    Cost* row = h + static_cast<std::size_t>(r) * cs;
    const std::uint8_t* m = masks + static_cast<std::size_t>(r) * cs;
    if (r > 0) {
      const Cost* up = row - cs;
      for (std::size_t c = 0; c < cs; ++c) {
        offer(row[c], (m[c] & MeshLinks::kFromN) != 0, up[c]);
      }
    }
    rowScans(row, m);
  }
  for (int r = R - 1; r >= 0; --r) {
    Cost* row = h + static_cast<std::size_t>(r) * cs;
    const std::uint8_t* m = masks + static_cast<std::size_t>(r) * cs;
    if (r + 1 < R) {
      const Cost* down = row + cs;
      for (std::size_t c = 0; c < cs; ++c) {
        offer(row[c], (m[c] & MeshLinks::kFromS) != 0, down[c]);
      }
    }
    rowScans(row, m);
  }
}

/// True when one more meshSweep would change nothing. After a sweep only
/// the N links can offer a lower value: the backward pass leaves every
/// row settled against its W and E links (the E scan only lowers a value
/// to its right neighbour's final value plus step, which keeps the W link
/// into that neighbour settled) and against the finished row below it,
/// and never touches a row again once the pass moves above it; but it may
/// lower row r-1 after row r is done. So the check is one read-only
/// vertical pass.
bool meshSettled(const std::uint8_t* masks, int R, int C, Cost step,
                 const Cost* h) {
  const std::size_t cs = static_cast<std::size_t>(C);
  const std::size_t n = static_cast<std::size_t>(R) * cs;
  bool lower = false;
  for (std::size_t p = cs; p < n; ++p) {
    lower |= ((masks[p] & MeshLinks::kFromN) != 0) & (h[p - cs] + step < h[p]);
  }
  return !lower;
}

}  // namespace

void manhattanMinPlusInto(const Grid& grid, std::span<const Cost> in,
                          Cost beta, std::span<Cost> out) {
  const std::size_t n = static_cast<std::size_t>(grid.size());
  if (in.size() != n || out.size() != n) {
    throw std::invalid_argument("manhattanMinPlus: size mismatch");
  }
  checkChamferBeta(grid, beta, "manhattanMinPlus");
  Cost* h = out.data();
  if (h != in.data()) std::copy(in.begin(), in.end(), h);

  const int R = grid.rows();
  const int C = grid.cols();
  // The L1 transform is separable — a vertical relax stage plus in-row
  // scans — and runs strip by strip (4 rows at a time) so a strip is still
  // cache-resident across both stages; the vector tiers additionally fuse
  // the two stages into a single pass over the strip. Seeding a strip from
  // the fully-swept row above (instead of the vertical-only value) only
  // re-adds candidates v(r',c') + beta*(dr+dc) the row's own scan
  // contributes anyway — every schedule here computes the min of the
  // classic interleaved sweep's per-cell candidate set with exact sums,
  // hence bit-identical values.
  const auto& k = simd::active();
  const std::size_t cs = static_cast<std::size_t>(C);
  constexpr int kStrip = 4;
  for (int rs = 0; rs < R; rs += kStrip) {
    const int rn = std::min(kStrip, R - rs);
    Cost* strip = h + static_cast<std::size_t>(rs) * cs;
    k.chamferForwardStrip(strip, rs > 0 ? strip - cs : nullptr,
                          static_cast<std::size_t>(rn), cs, beta, cs);
  }
  // Backward: values flow left and up, mirrored, strips bottom-up.
  for (int rs = ((R - 1) / kStrip) * kStrip; rs >= 0; rs -= kStrip) {
    const int rn = std::min(kStrip, R - rs);
    Cost* strip = h + static_cast<std::size_t>(rs) * cs;
    k.chamferBackwardStrip(
        strip,
        rs + rn < R ? strip + static_cast<std::size_t>(rn) * cs : nullptr,
        static_cast<std::size_t>(rn), cs, beta, cs);
  }
  // Deferred clamp: anything at or above kInfiniteCost is unreachable.
  k.clampInf(h, n);
}

std::vector<Cost> manhattanMinPlus(const Grid& grid,
                                   const std::vector<Cost>& in, Cost beta) {
  if (static_cast<int>(in.size()) != grid.size()) {
    throw std::invalid_argument("manhattanMinPlus: size mismatch");
  }
  std::vector<Cost> out(in.size());
  manhattanMinPlusInto(grid, in, beta, out);
  return out;
}

int meshMinPlusInto(const MeshLinks& links, std::span<const Cost> in,
                    Cost beta, std::span<Cost> out) {
  const Grid& grid = links.grid();
  const std::size_t n = static_cast<std::size_t>(grid.size());
  if (in.size() != n || out.size() != n) {
    throw std::invalid_argument("meshMinPlus: size mismatch");
  }
  if (beta < 0) throw std::invalid_argument("meshMinPlus: beta < 0");
  // Every alive hop costs the same beta, so min_q in[q] + beta * hops(q, p)
  // is a multi-source shortest path over the alive directed mesh. Dead
  // processors start (and, having no live incoming link, stay)
  // unreachable, like their all-infinite rows in the dense table.
  const std::uint8_t* masks = links.masks();
  Cost* h = out.data();
  for (std::size_t p = 0; p < n; ++p) {
    h[p] = (masks[p] & MeshLinks::kAlive) != 0 ? std::min(in[p], kInfiniteCost)
                                                : kInfiniteCost;
  }
  // Sweep until settled: the fixpoint where one more sweep would change
  // nothing. Every value is then the shortest-path minimum — it is the
  // cost of a real path, and no live link can lower it.
  const int R = grid.rows();
  const int C = grid.cols();
  const Cost step = std::min(beta, kInfiniteCost);
  int sweeps = 0;
  do {
    meshSweep(masks, R, C, step, h);
    ++sweeps;
  } while (!meshSettled(masks, R, C, step, h));
  return sweeps;
}

void LayeredDagSolver::solveFlatInto(int numLayers, int numNodes,
                                     std::span<const Cost> nodeCosts,
                                     std::span<const Cost> transCosts,
                                     LayeredDagScratch& scratch,
                                     LayeredPath& out) {
  solveFlatResumeInto(numLayers, numNodes, nodeCosts, transCosts, 0,
                      scratch.dp, scratch, out);
}

namespace {

/// The layer loop every flat kernel shares: validates the problem and the
/// resume contract, copies layer 0 on a cold start, relaxes layers
/// [max(fromLayer, 1), numLayers) — `relax(prev, relaxed)` writes
/// min_q prev[q] + trans(q, p) into `relaxed`, where anything at or above
/// kInfiniteCost means unreachable — adds each layer's node costs through
/// combineLayer, and reconstructs the path with `scanPrev` (see
/// reconstructFlat). The relax and scan are statically dispatched
/// callables, so each kernel's inner loops stay free of indirect calls.
template <class RelaxFn, class ScanFn>
void solveLayered(int numLayers, int numNodes, std::span<const Cost> nodeCosts,
                  int fromLayer, CostBuffer& dpBuf, LayeredDagScratch& scratch,
                  LayeredPath& out, LayeredParentCache* parents,
                  const RelaxFn& relax, const ScanFn& scanPrev) {
  if (numLayers < 1 || numNodes < 1) {
    throw std::invalid_argument("LayeredDagSolver: empty problem");
  }
  if (fromLayer < 0 || fromLayer > numLayers) {
    throw std::invalid_argument("LayeredDagSolver: fromLayer out of range");
  }
  const std::size_t n = static_cast<std::size_t>(numNodes);
  const std::size_t ln = static_cast<std::size_t>(numLayers) * n;
  if (nodeCosts.size() != ln) {
    throw std::invalid_argument("LayeredDagSolver: node-cost table size mismatch");
  }
  if (fromLayer > 0 && dpBuf.size() < ln) {
    throw std::invalid_argument(
        "LayeredDagSolver: retained dp table too small for resume");
  }
  // Counters only, no scoped timer: the flat kernels are called per datum
  // from the parallel scheduler, where a timer's clock reads and shared
  // atomic read-modify-writes measurably serialized the plan phase.
  PIMSCHED_COUNTER_ADD("solver.runs", 1);
  PIMSCHED_COUNTER_ADD("solver.relaxed_layers",
                       numLayers - std::max(fromLayer, 1));

  const auto& k = simd::active();
  dpBuf.resize(ln);
  scratch.relaxed.resize(n);
  Cost* dp = dpBuf.data();
  Cost* relaxed = scratch.relaxed.data();
  const Cost* nc = nodeCosts.data();
  std::int32_t* par = resetParentCache(parents, fromLayer, numLayers, n);

  if (fromLayer == 0) std::copy(nc, nc + n, dp);
  for (int w = std::max(fromLayer, 1); w < numLayers; ++w) {
    relax(static_cast<const Cost*>(dp + static_cast<std::size_t>(w - 1) * n),
          relaxed);
    k.combineLayer(relaxed, nc + static_cast<std::size_t>(w) * n,
                   dp + static_cast<std::size_t>(w) * n, n);
  }
  reconstructFlat(numLayers, numNodes, dp, nc, scanPrev, par, out);
}

}  // namespace

void LayeredDagSolver::solveFlatResumeInto(
    int numLayers, int numNodes, std::span<const Cost> nodeCosts,
    std::span<const Cost> transCosts, int fromLayer, CostBuffer& dpBuf,
    LayeredDagScratch& scratch, LayeredPath& out,
    LayeredParentCache* parents) {
  const std::size_t n = static_cast<std::size_t>(std::max(numNodes, 0));
  if (numNodes >= 1 && transCosts.size() != n * n) {
    throw std::invalid_argument(
        "LayeredDagSolver: transition table size mismatch");
  }
  const auto& k = simd::active();
  const Cost* trans = transCosts.data();
  solveLayered(
      numLayers, numNodes, nodeCosts, fromLayer, dpBuf, scratch, out, parents,
      [&](const Cost* prev, Cost* relaxed) {
        // Min-plus against the full table. Sources run in the outer loop so
        // the inner pass reads one contiguous table row; unreachable sums
        // drift above kInfiniteCost and are clamped in combineLayer.
        std::fill(relaxed, relaxed + n, kInfiniteCost);
        for (std::size_t q = 0; q < n; ++q) {
          const Cost dq = prev[q];
          if (dq >= kInfiniteCost) continue;
          k.minPlusRow(trans + q * n, dq, relaxed, n);
        }
      },
      // Table scan: trans entries follow the cost contract (finite values
      // keep partial sums below kInfiniteCost), so `prev + t` cannot
      // overflow once both guards pass and plain equality against `need`
      // is exact.
      [&](const Cost* prevRow, int cur, Cost target, Cost own) -> int {
        const Cost need = target - own;
        const Cost* col = trans + static_cast<std::size_t>(cur);
        for (std::size_t q = 0; q < n; ++q) {
          const Cost t = col[q * n];
          if (prevRow[q] < kInfiniteCost && t < kInfiniteCost &&
              prevRow[q] + t == need) {
            return static_cast<int>(q);
          }
        }
        return -1;
      });
}

LayeredPath LayeredDagSolver::solveFlat(int numLayers, int numNodes,
                                        std::span<const Cost> nodeCosts,
                                        std::span<const Cost> transCosts) {
  LayeredDagScratch scratch;
  LayeredPath out;
  solveFlatInto(numLayers, numNodes, nodeCosts, transCosts, scratch, out);
  return out;
}

void LayeredDagSolver::solveManhattanFlatInto(const Grid& grid, int numLayers,
                                              std::span<const Cost> nodeCosts,
                                              Cost beta,
                                              LayeredDagScratch& scratch,
                                              LayeredPath& out) {
  const int numNodes = grid.size();
  const std::size_t n = static_cast<std::size_t>(numNodes);
  const auto relax = [&](const Cost* prev, Cost* relaxed) {
    manhattanMinPlusInto(grid, std::span<const Cost>(prev, n), beta,
                         std::span<Cost>(relaxed, n));
  };
  // Chamfer scan, division-free: the layer's node splits into (row, col)
  // once, then every candidate's transition is two |delta| multiplies — no
  // Grid::manhattan (two integer divisions) per candidate. Transitions top
  // out at beta * (R + C), which the beta bound keeps below
  // (INT64_MAX - kInfiniteCost) / 2, so `prev + t` with prev <
  // kInfiniteCost cannot overflow.
  //
  // Per candidate row, the whole-row transition part rowT is constant and
  // the in-row part colT[qc] = beta * |qc - cc| depends only on cc, so it
  // is staged once per reconstruction step (into scratch.relaxed, idle by
  // now) and the scan becomes one findPredecessor per row with the rowT
  // folded into the probe: pr[qc] + colT == need - rowT and colT < kInf -
  // rowT are exact rearrangements of the original conditions (rowT and
  // colT are each below INT64_MAX - kInfiniteCost here, so nothing wraps).
  checkChamferBeta(grid, beta, "LayeredDagSolver");
  const int R = grid.rows();
  const int C = grid.cols();
  const auto& k = simd::active();
  solveLayered(
      numLayers, numNodes, nodeCosts, 0, scratch.dp, scratch, out, nullptr,
      relax, [&](const Cost* prevRow, int cur, Cost target, Cost own) -> int {
        Cost* colT = scratch.relaxed.data();
        const Cost need = target - own;
        const int cr = cur / C;
        const int cc = cur % C;
        for (int qc = 0; qc < C; ++qc) {
          colT[qc] = beta * static_cast<Cost>(qc > cc ? qc - cc : cc - qc);
        }
        for (int qr = 0; qr < R; ++qr) {
          const Cost rowT =
              beta * static_cast<Cost>(qr > cr ? qr - cr : cr - qr);
          if (rowT >= kInfiniteCost) continue;
          const Cost* pr = prevRow + static_cast<std::size_t>(qr) *
                                         static_cast<std::size_t>(C);
          const std::ptrdiff_t qc =
              k.findPredecessor(pr, colT, need - rowT, kInfiniteCost - rowT,
                                static_cast<std::size_t>(C));
          if (qc >= 0) return qr * C + static_cast<int>(qc);
        }
        return -1;
      });
}

namespace {

/// One 1-D chain of the separable solve: dp[0] = node[0], and dp[w][x] =
/// node[w][x] + min_q dp[w-1][q] + beta * |x - q| through a forward and a
/// backward scan, clamped to kInfiniteCost. Every value entering a scan is
/// at most kInfiniteCost, and a scan only lowers values, so `+ beta`
/// cannot overflow within the chamfer beta bound.
void relaxChain(int numLayers, std::size_t n, const Cost* node, Cost beta,
                Cost* dp) {
  std::copy(node, node + n, dp);
  for (int w = 1; w < numLayers; ++w) {
    Cost* cur = dp + static_cast<std::size_t>(w) * n;
    std::copy(cur - n, cur, cur);
    for (std::size_t x = 1; x < n; ++x) {
      cur[x] = std::min(cur[x], cur[x - 1] + beta);
    }
    for (std::size_t x = n - 1; x-- > 0;) {
      cur[x] = std::min(cur[x], cur[x + 1] + beta);
    }
    const Cost* own = node + static_cast<std::size_t>(w) * n;
    for (std::size_t x = 0; x < n; ++x) cur[x] = satAdd(cur[x], own[x]);
  }
}

/// Backward reconstruction of one chain with the 2-D solvers' rule: the
/// smallest argmin of the last layer, then at each step the smallest q
/// with dp[w-1][q] + beta * |q - cur| == dp[w][cur] - node[w][cur].
/// `pick(w, x)` receives the chosen index of every layer. Requires a
/// finite last-layer minimum.
template <class PickFn>
void reconstructChain(int numLayers, std::size_t n, const Cost* dp,
                      const Cost* node, Cost beta, const PickFn& pick) {
  const Cost* last = dp + static_cast<std::size_t>(numLayers - 1) * n;
  std::size_t cur = static_cast<std::size_t>(
      std::min_element(last, last + n) - last);
  pick(numLayers - 1, cur);
  for (int w = numLayers - 1; w > 0; --w) {
    const std::size_t row = static_cast<std::size_t>(w) * n;
    const Cost need = dp[row + cur] - node[row + cur];
    const Cost* prev = dp + row - n;
    std::size_t q = 0;
    for (; q < n; ++q) {
      const Cost hops = static_cast<Cost>(q > cur ? q - cur : cur - q);
      if (prev[q] < kInfiniteCost && prev[q] + beta * hops == need) break;
    }
    if (q == n) {
      throw std::logic_error("LayeredDagSolver: path reconstruction failed");
    }
    cur = q;
    pick(w - 1, cur);
  }
}

}  // namespace

void LayeredDagSolver::solveSeparableInto(const Grid& grid, int numLayers,
                                          std::span<const Cost> rowCosts,
                                          std::span<const Cost> colCosts,
                                          Cost beta, LayeredDagScratch& scratch,
                                          LayeredPath& out) {
  if (numLayers < 1) {
    throw std::invalid_argument("LayeredDagSolver: empty problem");
  }
  checkChamferBeta(grid, beta, "LayeredDagSolver");
  const std::size_t R = static_cast<std::size_t>(grid.rows());
  const std::size_t C = static_cast<std::size_t>(grid.cols());
  const std::size_t L = static_cast<std::size_t>(numLayers);
  if (rowCosts.size() != L * R || colCosts.size() != L * C) {
    throw std::invalid_argument(
        "LayeredDagSolver: separable node-cost table size mismatch");
  }
  scratch.dp.resize(L * (R + C));
  Cost* rowDp = scratch.dp.data();
  Cost* colDp = rowDp + L * R;
  relaxChain(numLayers, R, rowCosts.data(), beta, rowDp);
  relaxChain(numLayers, C, colCosts.data(), beta, colDp);

  // The 2-D dp is rowDp + colDp cell by cell, so its minimum is the sum of
  // the two chains' minima.
  const Cost* rowLast = rowDp + (L - 1) * R;
  const Cost* colLast = colDp + (L - 1) * C;
  out.nodes.clear();
  out.total = satAdd(*std::min_element(rowLast, rowLast + R),
                     *std::min_element(colLast, colLast + C));
  if (out.total >= kInfiniteCost) return;
  out.nodes.resize(L);
  reconstructChain(numLayers, R, rowDp, rowCosts.data(), beta,
                   [&](int w, std::size_t r) {
                     out.nodes[static_cast<std::size_t>(w)] =
                         static_cast<int>(r * C);
                   });
  reconstructChain(numLayers, C, colDp, colCosts.data(), beta,
                   [&](int w, std::size_t c) {
                     out.nodes[static_cast<std::size_t>(w)] +=
                         static_cast<int>(c);
                   });
}

void LayeredDagSolver::solveMeshFlatInto(const MeshLinks& links, int numLayers,
                                         std::span<const Cost> nodeCosts,
                                         Cost beta, LayeredDagScratch& scratch,
                                         LayeredPath& out) {
  solveMeshFlatResumeInto(links, numLayers, nodeCosts, beta, 0, scratch.dp,
                          scratch, out);
}

void LayeredDagSolver::solveMeshFlatResumeInto(
    const MeshLinks& links, int numLayers, std::span<const Cost> nodeCosts,
    Cost beta, int fromLayer, CostBuffer& dpBuf, LayeredDagScratch& scratch,
    LayeredPath& out, LayeredParentCache* parents) {
  if (beta < 0) throw std::invalid_argument("LayeredDagSolver: beta < 0");
  const DistanceMap& distances = links.distances();
  const std::size_t n = static_cast<std::size_t>(links.grid().size());
  // Largest hop count whose beta multiple stays below kInfiniteCost: a
  // transition of more hops is infinite, exactly as the dense table's
  // `t < kInfiniteCost` guard rejects it.
  const Cost maxHops =
      beta == 0 ? kInfiniteCost - 1 : (kInfiniteCost - 1) / beta;
  std::int64_t sweeps = 0;
  solveLayered(
      numLayers, links.grid().size(), nodeCosts, fromLayer, dpBuf, scratch,
      out, parents,
      [&](const Cost* prev, Cost* relaxed) {
        sweeps += meshMinPlusInto(links, std::span<const Cost>(prev, n), beta,
                                  std::span<Cost>(relaxed, n));
      },
      // The dense table scan with beta * hops(q, cur) read from the
      // DistanceMap. prev[q] > need can never match (transitions are
      // nonnegative), which skips the distance read for most candidates;
      // it also rejects prev[q] >= kInfiniteCost, since need is finite.
      [&](const Cost* prevRow, int cur, Cost target, Cost own) -> int {
        const Cost need = target - own;
        for (std::size_t q = 0; q < n; ++q) {
          const Cost pq = prevRow[q];
          if (pq > need) continue;
          const Cost hops =
              distances.hopDistance(static_cast<ProcId>(q), cur);
          if (hops > maxHops) continue;
          if (pq + beta * hops == need) return static_cast<int>(q);
        }
        return -1;
      });
  PIMSCHED_COUNTER_ADD("solver.mesh_sweeps", sweeps);
}

LayeredPath LayeredDagSolver::solveManhattanFlat(
    const Grid& grid, int numLayers, std::span<const Cost> nodeCosts,
    Cost beta) {
  LayeredDagScratch scratch;
  LayeredPath out;
  solveManhattanFlatInto(grid, numLayers, nodeCosts, beta, scratch, out);
  return out;
}

}  // namespace pimsched
