// Figure 8: "The lifetime comparison of Max-WE, PCD/PS and PS-worst under
// BPA" across the four wear levelers, plus the geometric mean.
//
// Paper Gmeans: Max-WE 47.4%, PCD/PS 41.2%, PS-worst 25.6%; Max-WE beats
// PCD/PS by 14.8% and PS-worst by 85.0%.

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "wearlevel/wear_leveler.h"

int main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Figure 8: Max-WE vs PCD/PS vs PS-worst under BPA");
  cli.add_flag("seeds", "runs to average per point", "2");
  cli.add_switch("csv", "emit CSV instead of the ASCII table");
  cli.add_flag("lines", "scaled device size in lines", "2048");
  cli.add_flag("regions", "scaled region count", "128");
  cli.add_flag("endurance", "mean endurance (scaled)", "50000");
  bench::add_jobs_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");
  const ParallelOptions jobs = bench::jobs_from_cli(cli);

  const std::vector<std::pair<std::string, std::string>> schemes = {
      {"ps-worst", "PS-worst"}, {"pcd", "PCD/PS"}, {"maxwe", "Max-WE"}};

  std::map<std::string, std::vector<double>> lifetimes;
  Table table({"wear leveler", "PS-worst", "PCD/PS", "Max-WE"});
  table.set_title(
      "Figure 8 - lifetime (%) under BPA, 10% spares, by wear leveler");
  table.set_precision(1);

  for (const std::string& wl : paper_wear_levelers()) {
    std::vector<Cell> row{Cell{wl}};
    for (const auto& [scheme, label] : schemes) {
      ExperimentConfig config = scaled_stochastic_config(
          cli.get_uint("lines"), cli.get_uint("regions"),
          cli.get_double("endurance"));
      config.attack = "bpa";
      config.wear_leveler = wl;
      config.spare_scheme = scheme;
      const double lifetime =
          bench::mean_normalized_lifetime(config, seeds, 7, jobs);
      lifetimes[scheme].push_back(lifetime);
      row.push_back(Cell{bench::pct(lifetime)});
    }
    table.add_row(std::move(row));
  }
  {
    std::vector<Cell> row{Cell{std::string{"Gmean"}}};
    for (const auto& [scheme, label] : schemes) {
      row.push_back(Cell{bench::pct(geometric_mean(lifetimes[scheme]))});
    }
    table.add_row(std::move(row));
  }
  if (cli.get_bool("csv")) {
    std::cout << table.csv();
  } else {
    table.print(std::cout);
  }

  const double g_maxwe = geometric_mean(lifetimes["maxwe"]);
  const double g_pcd = geometric_mean(lifetimes["pcd"]);
  const double g_worst = geometric_mean(lifetimes["ps-worst"]);
  std::cout << "Gmean: Max-WE " << bench::pct(g_maxwe) << "%, PCD/PS "
            << bench::pct(g_pcd) << "%, PS-worst " << bench::pct(g_worst)
            << "%  (paper: 47.4, 41.2, 25.6)\n"
            << "Max-WE vs PCD/PS: +" << 100 * (g_maxwe / g_pcd - 1)
            << "% (paper +14.8%);  vs PS-worst: +"
            << 100 * (g_maxwe / g_worst - 1) << "% (paper +85.0%)\n";
  return 0;
}
