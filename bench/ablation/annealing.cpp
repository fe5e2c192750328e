#include "ablation/annealing.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/evaluator.hpp"
#include "obs/obs.hpp"

namespace pimsched {

namespace {

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  double uniform() {  // in [0, 1)
    return static_cast<double>(next() & 0x7FFFFFFF) /
           static_cast<double>(0x80000000u);
  }

 private:
  std::uint64_t state_;
};

}  // namespace

DataSchedule scheduleAnnealed(const WindowedRefs& refs,
                              const CostModel& model,
                              const DataSchedule& initial,
                              const SchedulerOptions& options,
                              const AnnealParams& params) {
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const int m = grid.size();
  if (initial.numData() != refs.numData() || initial.numWindows() != W) {
    throw std::invalid_argument("scheduleAnnealed: shape mismatch");
  }
  if (!initial.complete()) {
    throw std::invalid_argument("scheduleAnnealed: incomplete initial");
  }
  if (!initial.respectsCapacity(grid, options.capacity)) {
    throw std::invalid_argument(
        "scheduleAnnealed: initial schedule violates capacity");
  }
  if (params.stepsPerCooling <= 0) {
    // `it % stepsPerCooling` below is UB for 0 and nonsense for negatives.
    throw std::invalid_argument(
        "scheduleAnnealed: stepsPerCooling must be > 0");
  }

  DataSchedule current = initial;
  Cost currentCost = evaluateSchedule(current, refs, model).aggregate.total();
  Cost bestCost = currentCost;

  // Deferred best snapshot: copying the full schedule on every improvement
  // dominates the hot loop, so accepted moves are journaled and the best
  // state is reconstructed once, by replaying the journal prefix that led
  // to the lowest cost.
  struct Move {
    DataId d;
    WindowId w;
    ProcId p;
  };
  std::vector<Move> journal;
  std::size_t bestLen = 0;  // journal prefix reproducing the best state

  // Per-(window, processor) occupancy for O(1) capacity checks.
  std::vector<std::int64_t> occ(
      static_cast<std::size_t>(W) * static_cast<std::size_t>(m), 0);
  const auto occAt = [&](WindowId w, ProcId p) -> std::int64_t& {
    return occ[static_cast<std::size_t>(w) * static_cast<std::size_t>(m) +
               static_cast<std::size_t>(p)];
  };
  for (DataId d = 0; d < refs.numData(); ++d) {
    for (WindowId w = 0; w < W; ++w) ++occAt(w, current.center(d, w));
  }

  Lcg rng(params.seed);
  double temperature = params.initialTemperature;

  PIMSCHED_SCOPED_TIMER("sched.annealing");
  // Buffered locally: one registry merge after the loop keeps the
  // million-iteration hot path free of shared-cacheline traffic.
  std::int64_t proposals = 0;
  std::int64_t accepted = 0;

  for (std::int64_t it = 0; it < params.iterations; ++it) {
    const auto d = static_cast<DataId>(
        rng.next() % static_cast<std::uint64_t>(refs.numData()));
    const auto w =
        static_cast<WindowId>(rng.next() % static_cast<std::uint64_t>(W));
    const auto p =
        static_cast<ProcId>(rng.next() % static_cast<std::uint64_t>(m));
    const ProcId old = current.center(d, w);
    if (p == old) continue;
    if (options.capacity >= 0 && occAt(w, p) >= options.capacity) continue;
    ++proposals;

    // Incremental cost: serving of (d, w) plus the movement edges into and
    // out of window w.
    Cost delta = model.serveCost(refs.refs(d, w), p) -
                 model.serveCost(refs.refs(d, w), old);
    if (w > 0) {
      const ProcId prev = current.center(d, w - 1);
      delta += model.moveCost(prev, p) - model.moveCost(prev, old);
    }
    if (w + 1 < W) {
      const ProcId next = current.center(d, w + 1);
      delta += model.moveCost(p, next) - model.moveCost(old, next);
    }

    const bool accept =
        delta <= 0 ||
        rng.uniform() <
            std::exp(-static_cast<double>(delta) / temperature);
    if (accept) {
      ++accepted;
      current.setCenter(d, w, p);
      --occAt(w, old);
      ++occAt(w, p);
      currentCost += delta;
      journal.push_back(Move{d, w, p});
      if (currentCost < bestCost) {
        bestCost = currentCost;
        bestLen = journal.size();
      }
    }
    if (it % params.stepsPerCooling == 0) {
      temperature = std::max(1e-3, temperature * params.coolingFactor);
    }
  }
  PIMSCHED_COUNTER_ADD("anneal.proposals", proposals);
  PIMSCHED_COUNTER_ADD("anneal.accepted", accepted);

  DataSchedule best = initial;
  for (std::size_t i = 0; i < bestLen; ++i) {
    best.setCenter(journal[i].d, journal[i].w, journal[i].p);
  }
  return best;
}

}  // namespace pimsched
