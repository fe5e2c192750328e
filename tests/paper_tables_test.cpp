// The paper's Tables 1 and 2 as goldens: every cost cell (S.F. and each
// scheme's Comm.) of the 15 benchmark x size rows is recomputed through
// Experiment and compared with the "## Table 1" and "## Table 2" sections
// of tests/golden/paper_experiments.txt, the golden the paper_experiments
// driver is gated on. This pins the cells to the library directly, so a
// cost change is named by row and scheme rather than as a text diff.
// Timings are not part of the gate. Updating the golden file is a
// CHANGES.md entry with its reason.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "kernels/benchmarks.hpp"

namespace pimsched {
namespace {

/// One golden row: S.F. then the three schemes' Comm. cells.
using Cells = std::vector<Cost>;
/// "benchmark size" -> cells, for one table.
using Table = std::map<std::string, Cells>;

/// Reads the rows of the section whose heading starts with `heading`: a
/// column-header line and a dashed rule follow the heading, then one row
/// per benchmark x size ("1:lu 8x8 S.F. Comm. % Comm. % Comm. %") up to
/// the next dashed rule.
Table loadGolden(const std::string& heading) {
  std::ifstream in(std::string(PIMSCHED_GOLDEN_DIR) +
                   "/paper_experiments.txt");
  EXPECT_TRUE(in.good()) << "cannot open the paper-experiment goldens";
  Table out;
  std::string line;
  while (std::getline(in, line) && line.rfind(heading, 0) != 0) {
  }
  EXPECT_FALSE(in.eof()) << "no section " << heading;
  std::getline(in, line);  // column headers
  std::getline(in, line);  // dashed rule
  while (std::getline(in, line) && line.rfind("---", 0) != 0) {
    std::istringstream row(line);
    std::string benchmark, size;
    Cells cells(4);
    double pct = 0;
    row >> benchmark >> size >> cells[0] >> cells[1] >> pct >> cells[2] >>
        pct >> cells[3];
    EXPECT_FALSE(row.fail()) << "malformed golden line: " << line;
    out[benchmark + " " + size.substr(0, size.find('x'))] = cells;
  }
  return out;
}

/// Recomputes one table: the 5 benchmarks x 3 sizes on a 4x4 array, one
/// window per execution step, the paper's capacity rule.
Table recompute(const std::vector<Method>& schemes) {
  const Grid grid(4, 4);
  Table out;
  for (const PaperBenchmark b : allPaperBenchmarks()) {
    for (const int n : {8, 16, 32}) {
      const ReferenceTrace trace = makePaperBenchmark(b, grid, n);
      PipelineConfig cfg;
      cfg.numWindows = static_cast<int>(trace.numSteps());
      const Experiment exp(trace, grid, cfg);
      Cells cells{exp.evaluate(Method::kRowWise).aggregate.total()};
      for (const Method m : schemes) {
        cells.push_back(exp.evaluate(m).aggregate.total());
      }
      out[toString(b) + " " + std::to_string(n)] = cells;
    }
  }
  return out;
}

void expectMatchesGolden(const std::string& heading,
                         const std::vector<Method>& schemes) {
  const Table golden = loadGolden(heading);
  const Table got = recompute(schemes);
  ASSERT_EQ(golden.size(), 15u) << heading << " golden rows";
  ASSERT_EQ(got.size(), 15u);
  for (const auto& [row, cells] : golden) {
    const auto it = got.find(row);
    ASSERT_NE(it, got.end()) << heading << " row " << row
                             << " not recomputed";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(it->second[c], cells[c])
          << heading << " row " << row << ", "
          << (c == 0 ? std::string("S.F.") : toString(schemes[c - 1]));
    }
  }
}

TEST(PaperTables, Table1MatchesGolden) {
  expectMatchesGolden("## Table 1", {Method::kScds, Method::kLomcds,
                                     Method::kGomcds});
}

TEST(PaperTables, Table2MatchesGolden) {
  expectMatchesGolden("## Table 2", {Method::kScds, Method::kGroupedLomcds,
                                     Method::kGroupedGomcds});
}

}  // namespace
}  // namespace pimsched
