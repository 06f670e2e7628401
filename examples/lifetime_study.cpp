// Parameter-study example: sweep the spare fraction for every spare scheme
// and emit CSV ready for plotting — the workflow a systems researcher
// would actually run on top of this library.
//
// Run: build/examples/lifetime_study > study.csv
//      build/examples/lifetime_study --attack bpa --mode stochastic

#include <iostream>

#include "sim/experiment.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli("Spare-fraction sweep across spare schemes, CSV output");
  cli.add_flag("attack", "uaa (event engine) or bpa (stochastic)", "uaa");
  cli.add_flag("mode", "event or stochastic", "event");
  cli.add_flag("seeds", "seeds to average per point", "3");
  cli.add_flag("lines", "device lines for stochastic mode", "2048");
  cli.add_flag("regions", "regions for stochastic mode", "128");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  const std::uint64_t seeds = cli.get_uint("seeds");
  const bool stochastic = cli.get_string("mode") == "stochastic";

  Table table({"spare_fraction", "maxwe", "pcd", "ps", "ps_worst"});
  for (double p : {0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}) {
    std::vector<Cell> row;
    row.emplace_back(p);
    for (const std::string scheme : {"maxwe", "pcd", "ps", "ps-worst"}) {
      double acc = 0;
      for (std::uint64_t s = 0; s < seeds; ++s) {
        ExperimentConfig c;
        if (stochastic) {
          c = scaled_stochastic_config(cli.get_uint("lines"),
                                       cli.get_uint("regions"), 5e4);
        }
        c.attack = cli.get_string("attack");
        if (c.attack != "uaa" && !stochastic) {
          std::cerr << "non-uniform attacks need --mode stochastic\n";
          return 1;
        }
        c.spare_fraction = p;
        c.spare_scheme = scheme;
        c.seed = 42 + s;
        acc += run_experiment(c).normalized;
      }
      const double pct = 100.0 * acc / static_cast<double>(seeds);
      row.emplace_back(pct);
    }
    table.add_row(std::move(row));
  }
  std::cout << table.csv();
  return 0;
}
