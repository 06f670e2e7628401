// Figure 7: "The lifetime of Max-WE with various percentage of SWRs under
// BPA" for the four wear-leveling schemes (TLSR, PCM-S, BWL, WAWL).
//
// Paper shape: lifetime is highest when all spare lines are line-mapped
// additional spare regions (0% SWRs: 42.7 / 42.8 / 53.5 / 72.5% for
// TLSR / PCM-S / BWL / WAWL) and declines as the SWR share grows; at the
// chosen 90% operating point BWL and WAWL lose only ~1.1%.
//
// Runs on the scaled stochastic configuration (normalized lifetime is
// endurance-scale-free; see EXPERIMENTS.md "Scaling" for the invariants).

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/cli.h"
#include "util/table.h"
#include "wearlevel/wear_leveler.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Figure 7: Max-WE lifetime vs SWR share under BPA");
  cli.add_flag("seeds", "runs to average per point", "2");
  cli.add_switch("csv", "emit CSV instead of the ASCII table");
  cli.add_flag("lines", "scaled device size in lines", "2048");
  cli.add_flag("regions", "scaled region count", "128");
  cli.add_flag("endurance", "mean endurance (scaled)", "50000");
  bench::add_jobs_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");
  const ParallelOptions jobs = bench::jobs_from_cli(cli);

  const double swr_shares[] = {0.0, 0.2, 0.6, 0.8, 0.9, 1.0};

  Table table({"SWR share of spare lines (%)", "TLSR", "PCM-S", "BWL",
               "WAWL"});
  table.set_title(
      "Figure 7 - Max-WE lifetime (%) under BPA vs SWR share, 10% spares");
  table.set_precision(1);

  ExperimentConfig base = scaled_stochastic_config(
      cli.get_uint("lines"), cli.get_uint("regions"),
      cli.get_double("endurance"));
  base.attack = "bpa";
  base.spare_scheme = "maxwe";
  const std::vector<std::string>& levelers = paper_wear_levelers();
  std::vector<ExperimentConfig> configs;
  for (const double q : swr_shares) {
    for (const std::string& wl : levelers) {
      ExperimentConfig& config = configs.emplace_back(base);
      config.wear_leveler = wl;
      config.swr_fraction = q;
    }
  }
  const auto runs = run_over_seeds(configs, seeds, 7, jobs);
  for (std::size_t i = 0; i < std::size(swr_shares); ++i) {
    std::vector<Cell> row{Cell{100.0 * swr_shares[i]}};
    for (std::size_t j = 0; j < levelers.size(); ++j) {
      row.push_back(Cell{bench::pct(
          bench::summarize(runs[i * levelers.size() + j]).mean())});
    }
    table.add_row(std::move(row));
  }
  if (cli.get_bool("csv")) {
    std::cout << table.csv();
  } else {
    table.print(std::cout);
  }
  std::cout << "paper series at 0% SWRs: TLSR 42.7, PCM-S 42.8, BWL 53.5, "
               "WAWL 72.5 (%); shape target: monotone decline with SWR "
               "share, small loss at 90% for BWL/WAWL.\n";
  return 0;
}
