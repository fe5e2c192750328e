// The paper's Tables 1 and 2 as goldens: every cost cell (S.F. and each
// scheme's Comm.) of the 15 benchmark x size rows is recomputed the way
// bench/table1_before_grouping and bench/table2_after_grouping compute it,
// and compared with tests/golden/paper_tables.txt, which holds the values
// EXPERIMENTS.md reports. Timings are not part of the gate. Updating the
// golden file is a CHANGES.md entry with its reason.

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

Table loadGolden(const std::string& table) {
  std::ifstream in(std::string(PIMSCHED_GOLDEN_DIR) + "/paper_tables.txt");
  EXPECT_TRUE(in.good()) << "cannot open the paper-table goldens";
  Table out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name, benchmark;
    int n = 0;
    Cells cells(4);
    row >> name >> benchmark >> n >> cells[0] >> cells[1] >> cells[2] >>
        cells[3];
    EXPECT_FALSE(row.fail()) << "malformed golden line: " << line;
    if (name == table) out[benchmark + " " + std::to_string(n)] = cells;
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

void expectMatchesGolden(const std::string& table,
                         const std::vector<Method>& schemes) {
  const Table golden = loadGolden(table);
  const Table got = recompute(schemes);
  ASSERT_EQ(golden.size(), 15u) << table << " golden rows";
  ASSERT_EQ(got.size(), 15u);
  for (const auto& [row, cells] : golden) {
    const auto it = got.find(row);
    ASSERT_NE(it, got.end()) << table << " row " << row << " not recomputed";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(it->second[c], cells[c])
          << table << " row " << row << ", "
          << (c == 0 ? std::string("S.F.") : toString(schemes[c - 1]));
    }
  }
}

TEST(PaperTables, Table1MatchesGolden) {
  expectMatchesGolden("table1", {Method::kScds, Method::kLomcds,
                                 Method::kGomcds});
}

TEST(PaperTables, Table2MatchesGolden) {
  expectMatchesGolden("table2", {Method::kScds, Method::kGroupedLomcds,
                                 Method::kGroupedGomcds});
}

}  // namespace
}  // namespace pimsched
