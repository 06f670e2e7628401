// Figure 6: "The lifetime of Max-WE with various percentage of spare lines
// under UAA" — full-size device (1 GB, 2048 regions), event-driven engine.
//
// Paper series: {0, 1, 10, 20, 30, 40, 50}% spares ->
//               {4.1, 14.0, 43.1, 57.9, 74.1, 86.9, 87.4}% of ideal.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/analytic.h"
#include "nvm/endurance_map.h"
#include "util/cli.h"
#include "util/table.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Figure 6: Max-WE lifetime vs spare-line percentage (UAA)");
  cli.add_flag("seeds", "endurance-map draws to average", "3");
  cli.add_switch("csv", "emit CSV instead of the ASCII table");
  bench::add_jobs_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");
  const ParallelOptions jobs = bench::jobs_from_cli(cli);

  const double paper[] = {4.1, 14.0, 43.1, 57.9, 74.1, 86.9, 87.4};
  const double fractions[] = {0.0, 0.01, 0.10, 0.20, 0.30, 0.40, 0.50};

  Table table({"spare lines (% of capacity)", "measured lifetime (%)",
               "paper (%)", "Eq.(6) linear model (%)"});
  table.set_title(
      "Figure 6 - Max-WE lifetime under UAA vs spare-line percentage "
      "(1 GB / 2048 regions, 90% SWR split)");
  table.set_precision(1);

  // Eq. (6) reference column: the linear endurance model with the realized
  // EH/EL of the default-seed endurance map.
  Rng rng(42);
  ExperimentConfig reference;
  const EnduranceModel model(reference.endurance);
  const EnduranceMap map =
      EnduranceMap::from_model(reference.geometry, model, rng);

  std::vector<ExperimentConfig> configs;
  for (const double fraction : fractions) {
    // Paper geometry, UAA, event engine. 0% spares has no scheme to run;
    // use the unprotected baseline.
    ExperimentConfig& config = configs.emplace_back();
    config.spare_fraction = fraction;
    config.spare_scheme = fraction == 0.0 ? "none" : "maxwe";
  }
  const auto runs = run_over_seeds(configs, seeds, 42, jobs);
  for (std::size_t i = 0; i < std::size(fractions); ++i) {
    const double lifetime = bench::summarize(runs[i]).mean();

    LinearLifetimeModel lin;
    lin.num_lines = static_cast<double>(configs[i].geometry.num_lines());
    lin.e_low = map.min_line_endurance();
    lin.e_high = map.max_line_endurance();
    lin.spare_lines = static_cast<double>(configs[i].spare_lines());
    const double eq6 = lin.maxwe() / lin.ideal();

    table.add_row({Cell{100.0 * fractions[i]}, Cell{bench::pct(lifetime)},
                   Cell{paper[i]}, Cell{bench::pct(eq6)}});
  }
  if (cli.get_bool("csv")) {
    std::cout << table.csv();
  } else {
    table.print(std::cout);
  }
  std::cout << "note: the paper chooses 10% spares as the operating point "
               "(\"to ensure both security and durability with low "
               "overhead\", §5.2.1).\n";
  return 0;
}
