// Compare how the bundled attacks fare against each wear-leveler / spare
// combination on a scaled device — a small matrix version of the paper's
// §3.3 discussion ("The Vulnerability of Prior Wear-out Delay Techniques").
//
// Run: build/examples/attack_comparison [--lines N] [--regions R] [--seed S]

#include <iostream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/parallel.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli("Attack vs defense lifetime matrix (normalized lifetime %)");
  cli.add_flag("lines", "device size in lines", "2048");
  cli.add_flag("regions", "region count", "128");
  cli.add_flag("endurance", "mean line endurance (scaled)", "20000");
  cli.add_flag("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;

  const std::uint64_t lines = cli.get_uint("lines");
  const std::uint64_t regions = cli.get_uint("regions");
  const double endurance = cli.get_double("endurance");
  const std::uint64_t seed = cli.get_uint("seed");

  const std::vector<std::string> spares = {"none", "maxwe"};
  const std::vector<std::string> levelers = {"none", "startgap", "tlsr", "pcms",
                                             "bwl",  "wawl",     "twl"};
  const std::vector<std::string> attacks = {"zipf", "hotspot", "bpa", "uaa"};
  std::vector<ExperimentConfig> matrix;
  for (const std::string& spare : spares) {
    for (const std::string& wl : levelers) {
      for (const std::string& attack : attacks) {
        ExperimentConfig& c = matrix.emplace_back(
            scaled_stochastic_config(lines, regions, endurance));
        c.attack = attack;
        c.wear_leveler = wl;
        c.spare_scheme = spare;
        c.seed = seed;
      }
    }
  }
  // One batch on all cores; results come back in matrix order.
  const std::vector<LifetimeResult> results = run_experiments(matrix);

  auto result = results.begin();
  for (const std::string& spare : spares) {
    Table table({"wear leveler", "zipf (benign)", "hotspot", "bpa", "uaa"});
    table.set_title("spare scheme: " + spare +
                    "  (lifetime as % of ideal; UAA is the strongest attack)");
    table.set_precision(2);
    for (const std::string& wl : levelers) {
      std::vector<Cell> row;
      row.emplace_back(wl);
      for (std::size_t a = 0; a < attacks.size(); ++a, ++result) {
        row.emplace_back(100.0 * result->normalized);
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  std::cout << "reading guide: wear levelers rescue the hotspot column but "
               "cannot rescue the uaa column (§3.3.1) — only spare-line "
               "replacement (Max-WE) moves that one.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
