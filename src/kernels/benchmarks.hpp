#pragma once

#include <string>
#include <vector>

#include "kernels/iteration_map.hpp"
#include "trace/trace.hpp"

namespace pimsched {

/// The five benchmarks of the paper's evaluation section:
///   1 — LU factorization
///   2 — matrix square (C = A * A)
///   3 — LU followed by CODE
///   4 — matrix square followed by CODE
///   5 — CODE followed by reverse(CODE)
/// (CODE is our irregular-kernel substitute; see DESIGN.md.)
enum class PaperBenchmark { kLu = 1, kMatSquare, kLuCode, kMatCode, kCodeRev };

[[nodiscard]] std::string toString(PaperBenchmark b);

/// All five benchmarks in paper order.
[[nodiscard]] const std::vector<PaperBenchmark>& allPaperBenchmarks();

/// Builds the reference trace of a paper benchmark with an n x n data array
/// on the given grid under the given iteration partition. Row-block is the
/// default: it matches the row-wise "straight-forward" data distribution
/// the paper compares against, and reproduces the paper's improvement
/// magnitudes (see DESIGN.md §5 and section D2 of bench/paper_experiments
/// for the partition sensitivity).
[[nodiscard]] ReferenceTrace makePaperBenchmark(
    PaperBenchmark b, const Grid& grid, int n,
    PartitionKind partition = PartitionKind::kRowBlock);

}  // namespace pimsched
