#include "core/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_set>
#include <utility>

#include "core/gomcds_detail.hpp"
#include "core/placement.hpp"
#include "cost/center_costs.hpp"
#include "fault/fault_map.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace pimsched {

namespace {

/// Content fingerprint of everything the retained solver state depends on:
/// problem shape, cost parameters, scheduler options, engine, and the full
/// fault state (dead processors, capacity limits, directed link faults —
/// link faults change the distance metric and therefore both serve costs
/// and the transition table). O(numProcs), negligible next to one layer
/// relaxation.
std::uint64_t solveFingerprint(const WindowedRefs& refs, const CostModel& model,
                               const SchedulerOptions& options,
                               GomcdsEngine engine) {
  std::uint64_t h = kRowHashSeed;
  const auto mix = [&h](std::uint64_t v) { rowHashMix(h, v); };
  mix(static_cast<std::uint64_t>(refs.numData()));
  mix(static_cast<std::uint64_t>(refs.numWindows()));
  mix(static_cast<std::uint64_t>(refs.numProcs()));
  const Grid& grid = model.grid();
  mix(static_cast<std::uint64_t>(grid.rows()));
  mix(static_cast<std::uint64_t>(grid.cols()));
  mix(static_cast<std::uint64_t>(model.params().hopCost));
  mix(static_cast<std::uint64_t>(model.params().moveVolume));
  mix(static_cast<std::uint64_t>(options.capacity));
  mix(static_cast<std::uint64_t>(options.order == DataOrder::kByWeightDesc));
  mix(static_cast<std::uint64_t>(engine == GomcdsEngine::kNaive));
  mix(static_cast<std::uint64_t>(model.faultAware()));
  if (const FaultMap* faults = model.faults()) {
    const int R = grid.rows();
    const int C = grid.cols();
    for (ProcId p = 0; p < grid.size(); ++p) {
      std::uint64_t v = faults->procDead(p) ? 1 : 0;
      v |= static_cast<std::uint64_t>(faults->capacityLimit(p) + 1) << 1;
      mix(v);
      // Directed link faults toward the right and down neighbours cover
      // every mesh link in both directions.
      const int r = p / C;
      const int c = p % C;
      std::uint64_t links = 0;
      if (c + 1 < C) {
        links |= faults->linkDead(p, p + 1) ? 1u : 0u;
        links |= faults->linkDead(p + 1, p) ? 2u : 0u;
      }
      if (r + 1 < R) {
        links |= faults->linkDead(p, p + C) ? 4u : 0u;
        links |= faults->linkDead(p + C, p) ? 8u : 0u;
      }
      mix(links);
    }
  }
  return h;
}

/// First changed window of datum d between two same-shaped generations by
/// direct row comparison. Authoritative (no collision risk to rule out),
/// and in the CSR layout both rows are short and contiguous, so comparing
/// them outright costs less than recomputing even one side's FNV-1a
/// prescreen signature — this is the bulk path the solver runs per datum
/// per solve. firstChangedWindow() below keeps the signature-prescreened
/// form as the public reference implementation; the two always agree
/// (asserted by the incremental tests).
int firstChangedWindowDirect(const WindowedRefs& now, const WindowedRefs& prev,
                             DataId d) {
  const int W = now.numWindows();
  for (int w = 0; w < W; ++w) {
    const std::span<const ProcWeight> a = now.refs(d, w);
    const std::span<const ProcWeight> b = prev.refs(d, w);
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      return w;
    }
  }
  return W;
}

/// FNV-1a signature over datum d's reference strings in windows [from, W),
/// same mixing scheme as WindowedRefs::refsSignature (row length first,
/// then each (proc, weight) pair, so window boundaries count). Prescreen
/// for the warm-path suffix classing; a full suffix comparison confirms on
/// match, so collisions can never merge distinct classes.
std::uint64_t suffixSignature(const WindowedRefs& refs, DataId d, int from) {
  std::uint64_t h = kRowHashSeed;
  const int W = refs.numWindows();
  for (int w = from; w < W; ++w) {
    const std::span<const ProcWeight> row = refs.refs(d, w);
    rowHashMix(h, row.size());
    rowHashMixPairs(h, row);
  }
  return h;
}

/// True if data a and b have byte-identical reference strings in every
/// window of [from, W).
bool sameSuffix(const WindowedRefs& refs, DataId a, DataId b, int from) {
  const int W = refs.numWindows();
  for (int w = from; w < W; ++w) {
    const std::span<const ProcWeight> ra = refs.refs(a, w);
    const std::span<const ProcWeight> rb = refs.refs(b, w);
    if (ra.size() != rb.size() ||
        !std::equal(ra.begin(), ra.end(), rb.begin())) {
      return false;
    }
  }
  return true;
}

/// Warm-path equivalence classes: a refinement of computeDedupClasses'
/// partition derived from the previous generation instead of rehashing
/// every reference string. Members of one previous class share their full
/// previous string, so their unchanged prefixes agree byte-for-byte; the
/// new partition therefore subdivides each previous class on (first
/// changed window, changed suffix), and a previous class with a single
/// member — the common case once a stream's classes have split — passes
/// through with no hashing at all. classFrom[c] receives the first changed
/// window shared by all of class c's members. Classes are numbered in
/// first-member order and represented by their lowest-id member, like the
/// cold classing.
detail::DedupClasses warmClasses(const WindowedRefs& refs,
                                 const WindowedRefs& prev,
                                 const std::vector<int>& prevClassOf,
                                 std::size_t numPrevClasses,
                                 std::vector<int>& classFrom) {
  const DataId n = refs.numData();
  const int W = refs.numWindows();
  detail::DedupClasses out;
  out.classOf.resize(static_cast<std::size_t>(n));
  classFrom.clear();

  std::vector<int> prevSize(numPrevClasses, 0);
  for (DataId d = 0; d < n; ++d) {
    ++prevSize[static_cast<std::size_t>(prevClassOf[static_cast<std::size_t>(d)])];
  }

  // Per previous class, the subclasses carved out of it so far. Visiting
  // data in ascending id keeps class numbering and representatives
  // identical to a first-occurrence scan.
  struct Sub {
    std::uint64_t sig;
    int from;
    int cls;
  };
  std::vector<std::vector<Sub>> subs(numPrevClasses);
  for (DataId d = 0; d < n; ++d) {
    const std::size_t pc =
        static_cast<std::size_t>(prevClassOf[static_cast<std::size_t>(d)]);
    // Members of one previous class had identical strings, so a datum
    // whose new strings equal those of its previous class's first
    // subclass representative (the usual case: a group churns together)
    // belongs to that subclass, with the same first changed window. One
    // comparison then replaces the change scan, suffix hash and compare.
    if (!subs[pc].empty() &&
        refs.sameRefs(out.rep[static_cast<std::size_t>(subs[pc][0].cls)],
                      d)) {
      const int cls = subs[pc][0].cls;
      out.classOf[static_cast<std::size_t>(d)] = cls;
      ++out.size[static_cast<std::size_t>(cls)];
      continue;
    }
    const int from = firstChangedWindowDirect(refs, prev, d);
    if (prevSize[pc] == 1) {
      const int cls = static_cast<int>(out.rep.size());
      out.rep.push_back(d);
      out.size.push_back(1);
      classFrom.push_back(from);
      out.classOf[static_cast<std::size_t>(d)] = cls;
      continue;
    }
    const std::uint64_t sig =
        from >= W ? 0 : suffixSignature(refs, d, from);
    int cls = -1;
    for (const Sub& s : subs[pc]) {
      if (s.sig != sig || s.from != from) continue;
      if (from >= W ||
          sameSuffix(refs, out.rep[static_cast<std::size_t>(s.cls)], d,
                     from)) {
        cls = s.cls;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(out.rep.size());
      out.rep.push_back(d);
      out.size.push_back(0);
      classFrom.push_back(from);
      subs[pc].push_back(Sub{sig, from, cls});
    }
    out.classOf[static_cast<std::size_t>(d)] = cls;
    ++out.size[static_cast<std::size_t>(cls)];
  }
  return out;
}

}  // namespace

int firstChangedWindow(const WindowedRefs& now, const WindowedRefs& prev,
                       DataId d) {
  if (now.numWindows() != prev.numWindows() ||
      now.numProcs() != prev.numProcs() || d >= now.numData() ||
      d >= prev.numData()) {
    return 0;
  }
  return detail::firstChangedWindowImpl(
      now.numWindows(),
      [&](int w) { return now.refsSignature(d, w) == prev.refsSignature(d, w); },
      [&](int w) { return now.sameRefsAs(prev, d, w, d, w); });
}

void IncrementalSolver::invalidate() {
  retainedValid_ = false;
  prevRefs_.reset();
  prevClassOf_.clear();
  prevStates_.clear();
}

std::size_t IncrementalSolver::retainedBytes() const {
  std::size_t bytes = 0;
  std::unordered_set<const ClassState*> seen;
  for (const std::shared_ptr<ClassState>& st : prevStates_) {
    if (!st || !seen.insert(st.get()).second) continue;
    bytes += (st->serve.size() + st->dp.size()) * sizeof(Cost) +
             st->parents.size() * sizeof(std::int32_t) +
             st->path.nodes.size() * sizeof(int);
  }
  return bytes;
}

DataSchedule IncrementalSolver::coldFall(const WindowedRefs& refs,
                                         const CostModel& model,
                                         const SchedulerOptions& options,
                                         GomcdsEngine engine) {
  invalidate();
  stats_ = Stats{};
  PIMSCHED_COUNTER_ADD("gomcds.incremental.cold_falls", 1);
  return scheduleGomcds(refs, model, options, 1, engine);
}

DataSchedule IncrementalSolver::solve(
    std::shared_ptr<const WindowedRefs> sharedRefs, const CostModel& model,
    const SchedulerOptions& options, GomcdsEngine engine) {
  const WindowedRefs& refs = *sharedRefs;
  // Retention requires a static forbidden set: under capacity pressure the
  // mask grows between data, so per-class dp tables and paths from one
  // datum are unsound for the next — cold solve, retain nothing.
  if (!detail::staticForbiddenSet(model, options) || refs.numWindows() < 1) {
    return coldFall(refs, model, options, engine);
  }

  PIMSCHED_SCOPED_TIMER("sched.gomcds_incremental");
  const int W = refs.numWindows();
  const std::size_t pn = static_cast<std::size_t>(model.grid().size());

  const std::uint64_t fp = solveFingerprint(refs, model, options, engine);
  const bool warm = retainedValid_ && fp == fingerprint_ && prevRefs_ &&
                    prevClassOf_.size() == static_cast<std::size_t>(refs.numData());
  stats_ = Stats{};
  stats_.cold = !warm;

  try {
    // Rebuilt per solve: O(P) masks on a faulted mesh, nothing on a
    // healthy one. Only the kNaive oracle pays its P x P table each time.
    const detail::LayerKernel kernel(model, engine);
    const bool separable = kernel.separable();

    // Cold generations rehash every reference string; warm generations
    // refine the previous partition touching only churned suffix bytes.
    std::vector<int> classFrom;
    const detail::DedupClasses classes =
        warm ? warmClasses(refs, *prevRefs_, prevClassOf_,
                           prevStates_.size(), classFrom)
             : detail::computeDedupClasses(refs);
    std::vector<std::shared_ptr<ClassState>> newStates(classes.rep.size());

    // How many new classes reuse each previous class: a uniquely-claimed
    // previous state can be recycled in place (pointer steal, suffix
    // overwrite); a multiply-claimed one (old classmates diverged) must be
    // prefix-copied per claimant.
    std::vector<int> claims;
    if (warm) {
      claims.assign(prevStates_.size(), 0);
      for (const DataId rep : classes.rep) {
        ++claims[static_cast<std::size_t>(
            prevClassOf_[static_cast<std::size_t>(rep)])];
      }
    }

    std::int64_t flatSolves = 0;
    detail::GomcdsScratch& scratch = workerScratch<detail::GomcdsScratch>();
    for (std::size_t c = 0; c < classes.rep.size(); ++c) {
      const DataId rep = classes.rep[c];
      int from = 0;
      int oldCls = -1;
      if (warm) {
        oldCls = prevClassOf_[static_cast<std::size_t>(rep)];
        from = classFrom[c];
      }
      if (from >= W) {
        // Entire per-class subproblem unchanged: share the previous state
        // (its path, and off the healthy mesh its tables) with zero
        // copying.
        newStates[c] = prevStates_[static_cast<std::size_t>(oldCls)];
        stats_.reusedLayers += W;
        continue;
      }

      const bool sole =
          oldCls >= 0 && claims[static_cast<std::size_t>(oldCls)] == 1;
      std::shared_ptr<ClassState> st;
      if (sole) {
        // Sole claimant: recycle the previous buffers in place (rows
        // [0, from) are already valid, the suffix is overwritten below).
        st = std::move(prevStates_[static_cast<std::size_t>(oldCls)]);
      } else {
        st = std::make_shared<ClassState>();
      }
      ++flatSolves;
      if (separable) {
        // A whole separable solve, O(W * (refs + R + C)), costs about what
        // resuming its suffix would, and needs no retained tables.
        kernel.solveDatum(refs, rep, scratch, st->path);
        stats_.relaxedLayers += W;
        newStates[c] = std::move(st);
        continue;
      }
      if (!sole) {
        st->serve.resize(static_cast<std::size_t>(W) * pn);
        st->dp.resize(static_cast<std::size_t>(W) * pn);
        if (oldCls >= 0 && from > 0) {
          const ClassState& old = *prevStates_[static_cast<std::size_t>(oldCls)];
          const std::size_t prefix = static_cast<std::size_t>(from) * pn;
          std::copy(old.serve.data(), old.serve.data() + prefix,
                    st->serve.data());
          std::copy(old.dp.data(), old.dp.data() + prefix, st->dp.data());
          // Copy the predecessor cache wholesale — its prefix entries are
          // valid for the copied dp prefix, and the solver invalidates the
          // suffix entries on entry anyway.
          st->parents = old.parents;
        }
      }

      // Rebuild only the changed serving-cost rows; rows [0, from) are
      // byte-identical to what a cold solve would compute (same refs, same
      // model, same deterministic cost function), which is what makes the
      // resumed dp — and therefore the reconstructed path — bit-identical.
      for (WindowId w = from; w < W; ++w) {
        separableCenterCostsInto(
            model, refs.refs(rep, w),
            std::span<Cost>(st->serve.data() + static_cast<std::size_t>(w) * pn,
                            pn));
      }
      kernel.resume(W,
                    std::span<const Cost>(st->serve.data(), st->serve.size()),
                    from, st->dp, scratch.dag, st->path, &st->parents);
      stats_.reusedLayers += from;
      stats_.relaxedLayers += W - from;
      newStates[c] = std::move(st);
    }
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves", flatSolves);
    PIMSCHED_COUNTER_ADD("gomcds.incremental.reused_layers",
                         stats_.reusedLayers);
    PIMSCHED_COUNTER_ADD("gomcds.incremental.relaxed_layers",
                         stats_.relaxedLayers);
    if (warm) {
      PIMSCHED_COUNTER_ADD("gomcds.incremental.warm_solves", 1);
    } else {
      PIMSCHED_COUNTER_ADD("gomcds.incremental.cold_falls", 1);
    }

    // The cold engine's static-set commit: visit order, feasibility
    // checks, occupancy accounting.
    Placement placement(refs, model, options.capacity, options.order);
    for (const DataId d : placement.order()) {
      const int cls = classes.classOf[static_cast<std::size_t>(d)];
      placement.commit(d, newStates[static_cast<std::size_t>(cls)]->path,
                       "scheduleGomcds");
    }
    PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                         static_cast<std::int64_t>(placement.order().size()));
    DataSchedule schedule = placement.finish();

    prevRefs_ = std::move(sharedRefs);
    prevClassOf_ = classes.classOf;
    prevStates_ = std::move(newStates);
    fingerprint_ = fp;
    retainedValid_ = true;
    return schedule;
  } catch (...) {
    // Retained buffers may have been stolen mid-build; never resume from a
    // half-updated generation.
    invalidate();
    throw;
  }
}

}  // namespace pimsched
