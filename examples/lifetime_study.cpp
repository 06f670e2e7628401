// Parameter-study example: sweep the spare fraction for every spare scheme
// and emit CSV ready for plotting — the workflow a systems researcher
// would actually run on top of this library.
//
// Run: build/examples/lifetime_study > study.csv
//      build/examples/lifetime_study --attack bpa --mode stochastic

#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/parallel.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli("Spare-fraction sweep across spare schemes, CSV output");
  cli.add_flag("attack", "uaa (event engine) or bpa (stochastic)", "uaa");
  cli.add_flag("mode", "event or stochastic", "event");
  cli.add_flag("seeds", "seeds to average per point", "3");
  cli.add_flag("lines", "device lines for stochastic mode", "2048");
  cli.add_flag("regions", "regions for stochastic mode", "128");
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");
  const bool stochastic = cli.get_string("mode") == "stochastic";
  ExperimentConfig base;
  if (stochastic) {
    base = scaled_stochastic_config(cli.get_uint("lines"),
                                    cli.get_uint("regions"), 5e4);
  }
  base.attack = cli.get_string("attack");
  if (base.attack != "uaa" && !stochastic) {
    throw std::invalid_argument("non-uniform attacks need --mode stochastic");
  }

  const std::vector<double> fractions = {0.02, 0.05, 0.10, 0.15,
                                         0.20, 0.25, 0.30};
  const std::vector<std::string> schemes = {"maxwe", "pcd", "ps", "ps-worst"};
  std::vector<ExperimentConfig> grid;
  for (const double p : fractions) {
    for (const std::string& scheme : schemes) {
      ExperimentConfig& c = grid.emplace_back(base);
      c.spare_fraction = p;
      c.spare_scheme = scheme;
    }
  }
  // One batch: every point at every seed shares all cores, and the results
  // come back as runs[point][seed] whatever order the runs finish in.
  const auto runs = run_over_seeds(grid, seeds, 42);

  Table table({"spare_fraction", "maxwe", "pcd", "ps", "ps_worst"});
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    std::vector<Cell> row;
    row.emplace_back(fractions[i]);
    for (std::size_t j = 0; j < schemes.size(); ++j) {
      double acc = 0;
      for (const LifetimeResult& r : runs[i * schemes.size() + j]) {
        acc += r.normalized;
      }
      row.emplace_back(100.0 * acc / static_cast<double>(seeds));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.csv();
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
