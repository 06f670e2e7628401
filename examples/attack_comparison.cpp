// Compare how the bundled attacks fare against each wear-leveler / spare
// combination on a scaled device — a small matrix version of the paper's
// §3.3 discussion ("The Vulnerability of Prior Wear-out Delay Techniques").
//
// Run: build/examples/attack_comparison [--lines N] [--regions R] [--seed S]

#include <iostream>

#include "sim/experiment.h"
#include "util/cli.h"
#include "util/table.h"
#include "wearlevel/wear_leveler.h"

int main(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli("Attack vs defense lifetime matrix (normalized lifetime %)");
  cli.add_flag("lines", "device size in lines", "2048");
  cli.add_flag("regions", "region count", "128");
  cli.add_flag("endurance", "mean line endurance (scaled)", "20000");
  cli.add_flag("seed", "RNG seed", "1");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  const std::uint64_t lines = cli.get_uint("lines");
  const std::uint64_t regions = cli.get_uint("regions");
  const double endurance = cli.get_double("endurance");
  const std::uint64_t seed = cli.get_uint("seed");

  for (const std::string spare : {"none", "maxwe"}) {
    Table table({"wear leveler", "zipf (benign)", "hotspot", "bpa", "uaa"});
    table.set_title("spare scheme: " + spare +
                    "  (lifetime as % of ideal; UAA is the strongest attack)");
    table.set_precision(2);
    for (const std::string wl :
         {"none", "startgap", "tlsr", "pcms", "bwl", "wawl", "twl"}) {
      std::vector<Cell> row;
      row.emplace_back(wl);
      for (const std::string attack : {"zipf", "hotspot", "bpa", "uaa"}) {
        ExperimentConfig c = scaled_stochastic_config(lines, regions,
                                                      endurance);
        c.attack = attack;
        c.wear_leveler = wl;
        c.spare_scheme = spare;
        c.seed = seed;
        const double pct = 100.0 * run_experiment(c).normalized;
        row.emplace_back(pct);
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
