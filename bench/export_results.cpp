// Writes the paper tables as machine-readable CSV next to the text
// harnesses: results/table1.csv and results/table2.csv (the directory is
// created relative to the working directory).

#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "report/csv.hpp"

namespace {

using namespace pimsched;
using namespace pimsched::benchtool;

void writeCsv(const std::string& path, const std::vector<Row>& rows,
              const std::vector<std::string>& methodNames) {
  std::ofstream os(path);
  CsvWriter csv(os);
  std::vector<std::string> header = {"benchmark", "size", "sf"};
  for (const std::string& m : methodNames) {
    header.push_back(m);
    header.push_back(m + "_improvement_pct");
  }
  csv.row(header);
  for (const Row& r : rows) {
    std::vector<std::string> cells = {
        r.benchmark, std::to_string(r.n) + "x" + std::to_string(r.n),
        std::to_string(r.sf)};
    for (const Cost c : r.costs) {
      cells.push_back(std::to_string(c));
      cells.push_back(formatFixed(improvementPct(r.sf, c), 3));
    }
    csv.row(cells);
  }
}

}  // namespace

int main() {
  std::filesystem::create_directories("results");
  const std::vector<Row> rows =
      runPaperGrid({Method::kScds, Method::kLomcds, Method::kGomcds,
                    Method::kGroupedLomcds, Method::kGroupedGomcds});
  writeCsv("results/table1.csv", selectColumns(rows, {0, 1, 2}),
           {"scds", "lomcds", "gomcds"});
  writeCsv("results/table2.csv", selectColumns(rows, {0, 3, 4}),
           {"scds", "lomcds_grouped", "gomcds_grouped"});
  std::cout << "wrote results/table1.csv and results/table2.csv\n";
  return 0;
}
