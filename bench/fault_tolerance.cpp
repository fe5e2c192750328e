// Fault-tolerance sweep: a GOMCDS schedule is computed on the healthy 4x4
// mesh, then a batch of processors dies at the midpoint window. The stale
// suffix is unusable (dead centers), so the sweep compares the two real
// responses over the remaining windows:
//   repair   — online repairSchedule: move only the broken data onto the
//              cheapest surviving feasible centers;
//   resched  — fault-aware GOMCDS from scratch, charged for migrating the
//              live data from where the stale schedule actually left them.
// Both columns use the same metric (repairSuffixCost over the suffix, the
// out-of-band recovery rule included), so they are directly comparable.
//
// Prints the sweep table and writes results/bench_fault.json. --smoke runs
// a reduced sweep (one benchmark, one size) for CI.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "ablation/repair.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_map.hpp"
#include "kernels/benchmarks.hpp"
#include "report/table.hpp"

namespace {

using namespace pimsched;

struct SweepRow {
  std::string benchmark;
  int n = 0;
  int deadProcs = 0;
  int deadLinks = 0;
  bool feasible = true;
  std::string reason;  ///< why the row is infeasible
  Cost repairCost = 0;
  Cost reschedCost = 0;
  std::int64_t cellsRepaired = 0;
  std::int64_t dataRepaired = 0;
  Cost repairMigration = 0;
  std::int64_t recovered = 0;
};

/// The re-schedule response: fault-aware GOMCDS over the whole trace, then
/// the fresh suffix grafted onto the executed stale prefix so the boundary
/// migration (live data moving from where they actually are) is charged.
Cost rescheduleSuffixCost(const DataSchedule& stale, const Experiment& faulted,
                          WindowId faultWindow) {
  const DataSchedule fresh = faulted.schedule(Method::kGomcds);
  DataSchedule hybrid = stale;
  for (DataId d = 0; d < stale.numData(); ++d) {
    for (WindowId w = faultWindow; w < stale.numWindows(); ++w) {
      hybrid.setCenter(d, w, fresh.center(d, w));
    }
  }
  return repairSuffixCost(hybrid, faulted.refs(), faulted.costModel(),
                          faultWindow);
}

std::vector<SweepRow> runSweep(bool smoke) {
  const Grid grid(4, 4);
  const std::vector<PaperBenchmark> benchmarks =
      smoke ? std::vector<PaperBenchmark>{PaperBenchmark::kLuCode}
            : allPaperBenchmarks();
  const std::vector<int> sizes = smoke ? std::vector<int>{8}
                                       : std::vector<int>{8, 16};
  const std::vector<int> deadCounts = smoke ? std::vector<int>{1, 3}
                                            : std::vector<int>{1, 2, 3, 4};

  std::vector<SweepRow> rows;
  for (const PaperBenchmark b : benchmarks) {
    for (const int n : sizes) {
      const ReferenceTrace trace = makePaperBenchmark(b, grid, n);
      PipelineConfig cfg;
      cfg.numWindows = 8;
      const Experiment healthy(trace, grid, cfg);
      const DataSchedule stale = healthy.schedule(Method::kGomcds);
      const WindowId faultWindow = healthy.refs().numWindows() / 2;

      for (const int dead : deadCounts) {
        // Directed link kills are the harshest fault class (a processor
        // that can send but not be reached pins all its referenced data to
        // itself), so inject half as many links as processors.
        const int deadLinks = dead / 2;
        FaultMap faults(grid);
        faults.injectUniformProcs(dead, /*seed=*/17 + dead);
        faults.injectUniformLinks(deadLinks, /*seed=*/29 + dead);
        const Experiment faulted(trace, grid, faults, cfg);

        SweepRow row;
        row.benchmark = toString(b);
        row.n = n;
        row.deadProcs = dead;
        row.deadLinks = deadLinks;
        try {
          RepairOptions opts;
          opts.faultWindow = faultWindow;
          opts.capacity = faulted.capacity();
          const RepairResult rep = repairSchedule(
              stale, faulted.refs(), faulted.costModel(), opts);
          row.repairCost = rep.suffixCost;
          row.reschedCost = rescheduleSuffixCost(stale, faulted, faultWindow);
          row.cellsRepaired = rep.cellsRepaired;
          row.dataRepaired = rep.dataRepaired;
          row.repairMigration = rep.migrationCost;
          row.recovered = rep.recoveredMigrations;
        } catch (const std::exception& e) {
          // Some fault draws make the suffix genuinely unschedulable (for
          // example a processor that can still send but no longer be
          // reached, whose referenced data exceed its slots) — repair and
          // a full re-schedule fail the same way; report, don't hide.
          row.feasible = false;
          row.reason = e.what();
        }
        rows.push_back(row);
      }
    }
  }
  return rows;
}

void writeJson(const std::string& path, const std::vector<SweepRow>& rows) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    os << "  {\"benchmark\": \"" << r.benchmark << "\", \"size\": " << r.n
       << ", \"dead_procs\": " << r.deadProcs
       << ", \"dead_links\": " << r.deadLinks
       << ", \"feasible\": " << (r.feasible ? "true" : "false")
       << ", \"repair_suffix_cost\": " << r.repairCost
       << ", \"reschedule_suffix_cost\": " << r.reschedCost
       << ", \"cells_repaired\": " << r.cellsRepaired
       << ", \"data_repaired\": " << r.dataRepaired
       << ", \"repair_migration_cost\": " << r.repairMigration
       << ", \"recovered_migrations\": " << r.recovered << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::vector<SweepRow> rows = runSweep(smoke);

  std::cout << "Fault tolerance — GOMCDS schedule computed healthy, "
               "uniform proc+link faults arrive at the midpoint window\n\n";
  TextTable table({"B.", "size", "dead", "repair suffix", "resched suffix",
                   "cells moved", "repair migr.", "recovered"});
  int repairWins = 0, feasibleRows = 0;
  for (const SweepRow& r : rows) {
    const std::string shape =
        std::to_string(r.n) + "x" + std::to_string(r.n);
    const std::string faults = std::to_string(r.deadProcs) + "p+" +
                               std::to_string(r.deadLinks) + "l";
    if (!r.feasible) {
      table.addRow({r.benchmark, shape, faults, "infeasible", "infeasible",
                    "-", "-", "-"});
      continue;
    }
    ++feasibleRows;
    if (r.repairCost <= r.reschedCost) ++repairWins;
    table.addRow({r.benchmark, shape, faults, std::to_string(r.repairCost),
                  std::to_string(r.reschedCost),
                  std::to_string(r.cellsRepaired),
                  std::to_string(r.repairMigration),
                  std::to_string(r.recovered)});
  }
  table.print(std::cout);
  std::cout << "\nrepair <= full re-schedule + migration on " << repairWins
            << "/" << feasibleRows << " feasible rows ("
            << (rows.size() - static_cast<std::size_t>(feasibleRows))
            << " infeasible fault draws)\n";

  std::filesystem::create_directories("results");
  writeJson("results/bench_fault.json", rows);
  std::cout << "wrote results/bench_fault.json\n";

  // Sanity for CI: at least one fault draw must be repairable, and repair
  // must never *lose* to re-scheduling on every feasible row — minimal
  // movement is the point of repair.
  if (smoke && (feasibleRows == 0 || repairWins == 0)) {
    std::cerr << "FAIL: repair never beat re-scheduling ("
              << repairWins << "/" << feasibleRows << " feasible rows)\n";
    return 1;
  }
  return 0;
}
