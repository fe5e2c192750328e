#include "trace/windowed_refs.hpp"

#include <algorithm>
#include <stdexcept>

namespace pimsched {

WindowedRefs::WindowedRefs(const ReferenceTrace& trace,
                           const WindowPartition& windows, const Grid& grid)
    : numData_(trace.numData()),
      numWindows_(windows.numWindows()),
      numProcs_(grid.size()) {
  if (!trace.finalized()) {
    throw std::invalid_argument("WindowedRefs: trace must be finalized");
  }
  if (windows.numSteps() != trace.numSteps()) {
    throw std::invalid_argument(
        "WindowedRefs: window partition does not match trace step count");
  }

  // A counting sort over (datum, window) cells. finalize() sorted the
  // accesses by step, so a window cursor that only moves forward finds
  // each access's window (the empty trace never reads a window).
  const std::vector<Access>& accesses = trace.accesses();
  const auto forEachCell = [&](auto&& visit) {
    WindowId w = -1;
    StepId windowEnd = 0;
    for (const Access& a : accesses) {
      while (a.step >= windowEnd) windowEnd = windows.window(++w).end;
      visit(a, cellIndex(a.data, w));
    }
  };
  const std::size_t numCells = static_cast<std::size_t>(numData_) *
                               static_cast<std::size_t>(numWindows_);
  offsets_.assign(numCells + 1, 0);
  dataWeight_.assign(static_cast<std::size_t>(numData_), 0);

  // Count into offsets_[cell + 1], then turn the counts into cell starts
  // kept one slot to the right: the scatter advances offsets_[cell + 1]
  // from the cell's start to its end, so no cursor array is needed.
  forEachCell([&](const Access& a, std::size_t cell) {
    if (a.proc >= numProcs_) {
      throw std::invalid_argument(
          "WindowedRefs: access references a processor outside the grid");
    }
    ++offsets_[cell + 1];
    dataWeight_[static_cast<std::size_t>(a.data)] += a.weight;
  });
  std::size_t start = 0;
  for (std::size_t cell = 0; cell < numCells; ++cell) {
    const std::size_t count = offsets_[cell + 1];
    offsets_[cell + 1] = start;
    start += count;
  }
  entries_.resize(accesses.size());
  forEachCell([&](const Access& a, std::size_t cell) {
    entries_[offsets_[cell + 1]++] = ProcWeight{a.proc, a.weight};
  });

  // Each cell now lists its entries in (step, proc) order: sorted and
  // duplicate-free when they come from one step. Sort the few multi-step
  // cells that are not, merge repeated processors, and compact forward.
  const auto byProc = [](const ProcWeight& a, const ProcWeight& b) {
    return a.proc < b.proc;
  };
  std::size_t out = 0;
  std::size_t begin = 0;
  for (std::size_t cell = 0; cell < numCells; ++cell) {
    const std::size_t end = offsets_[cell + 1];
    const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = entries_.begin() + static_cast<std::ptrdiff_t>(end);
    if (!std::is_sorted(first, last, byProc)) std::sort(first, last, byProc);
    const std::size_t cellStart = out;
    for (std::size_t i = begin; i < end; ++i) {
      if (out > cellStart && entries_[out - 1].proc == entries_[i].proc) {
        entries_[out - 1].weight += entries_[i].weight;
      } else {
        entries_[out++] = entries_[i];
      }
    }
    offsets_[cell + 1] = out;
    begin = end;
  }
  entries_.resize(out);
}

WindowedRefs WindowedRefs::withProcsMasked(
    const std::vector<char>& deadMask) const {
  if (deadMask.size() != static_cast<std::size_t>(numProcs_)) {
    throw std::invalid_argument(
        "WindowedRefs::withProcsMasked: mask size must equal numProcs");
  }
  WindowedRefs out;
  out.numData_ = numData_;
  out.numWindows_ = numWindows_;
  out.numProcs_ = numProcs_;
  out.dataWeight_.assign(static_cast<std::size_t>(numData_), 0);
  const std::size_t numCells = static_cast<std::size_t>(numData_) *
                               static_cast<std::size_t>(numWindows_);
  out.offsets_.assign(numCells + 1, 0);
  out.entries_.reserve(entries_.size());
  for (std::size_t cell = 0; cell < numCells; ++cell) {
    out.offsets_[cell] = out.entries_.size();
    const DataId d =
        static_cast<DataId>(cell / static_cast<std::size_t>(numWindows_));
    for (std::size_t i = offsets_[cell]; i < offsets_[cell + 1]; ++i) {
      const ProcWeight& pw = entries_[i];
      if (deadMask[static_cast<std::size_t>(pw.proc)] != 0) continue;
      out.entries_.push_back(pw);
      out.dataWeight_[static_cast<std::size_t>(d)] += pw.weight;
    }
  }
  out.offsets_[numCells] = out.entries_.size();
  return out;
}

Cost WindowedRefs::windowWeight(DataId d, WindowId w) const {
  Cost sum = 0;
  for (const ProcWeight& pw : refs(d, w)) sum += pw.weight;
  return sum;
}

Cost WindowedRefs::dataWeight(DataId d) const {
  return dataWeight_[static_cast<std::size_t>(d)];
}

namespace {

// A row contributes its length before its entries so that window
// boundaries are part of the digest.
void mixRow(std::uint64_t& h, std::span<const ProcWeight> row) {
  rowHashMix(h, row.size());
  rowHashMixPairs(h, row);
}

}  // namespace

std::uint64_t WindowedRefs::refsSignature(DataId d) const {
  std::uint64_t h = kRowHashSeed;
  for (WindowId w = 0; w < numWindows_; ++w) {
    mixRow(h, refs(d, w));
  }
  return h;
}

std::uint64_t WindowedRefs::refsSignature(DataId d, WindowId w) const {
  std::uint64_t h = kRowHashSeed;
  mixRow(h, refs(d, w));
  return h;
}

bool WindowedRefs::sameRefs(DataId a, DataId b) const {
  for (WindowId w = 0; w < numWindows_; ++w) {
    const std::span<const ProcWeight> ra = refs(a, w);
    const std::span<const ProcWeight> rb = refs(b, w);
    if (ra.size() != rb.size()) return false;
    if (!std::equal(ra.begin(), ra.end(), rb.begin())) return false;
  }
  return true;
}

bool WindowedRefs::sameRefsAs(const WindowedRefs& other, DataId d, WindowId w,
                              DataId od, WindowId ow) const {
  const std::span<const ProcWeight> ra = refs(d, w);
  const std::span<const ProcWeight> rb = other.refs(od, ow);
  if (ra.size() != rb.size()) return false;
  return std::equal(ra.begin(), ra.end(), rb.begin());
}

std::vector<ProcWeight> WindowedRefs::mergedRefs(DataId d, WindowId wBegin,
                                                 WindowId wEnd) const {
  if (wBegin < 0 || wEnd > numWindows_ || wBegin >= wEnd) {
    throw std::invalid_argument("WindowedRefs::mergedRefs: bad window range");
  }
  // k-way merge of sorted-by-proc lists via accumulation into a dense map;
  // the processor count is small (a grid), so a dense array is cheapest.
  std::vector<Cost> acc(static_cast<std::size_t>(numProcs_), 0);
  for (WindowId w = wBegin; w < wEnd; ++w) {
    for (const ProcWeight& pw : refs(d, w)) {
      acc[static_cast<std::size_t>(pw.proc)] += pw.weight;
    }
  }
  std::vector<ProcWeight> out;
  for (ProcId p = 0; p < numProcs_; ++p) {
    if (acc[static_cast<std::size_t>(p)] > 0) {
      out.push_back(ProcWeight{p, acc[static_cast<std::size_t>(p)]});
    }
  }
  return out;
}

}  // namespace pimsched
