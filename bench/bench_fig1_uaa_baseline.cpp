// Figure 1 / headline claim: "the lifetime of NVMs under UAA is reduced to
// 4.1% of the ideal lifetime" (paper abstract, §1, §3.1).
//
// Runs the Uniform Address Attack against an unprotected full-size device
// (1 GB, 2048 regions) on the event-driven engine and prints the measured
// normalized lifetime next to the paper's 4.1% and Eq. (5)'s linear-model
// prediction for the realized endurance spread.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/analytic.h"
#include "nvm/endurance_map.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Figure 1: ideal vs UAA lifetime on an unprotected device");
  cli.add_flag("seeds", "number of endurance-map draws to average", "5");
  cli.add_switch("histogram", "print the endurance distribution (the red "
                              "curve of Fig. 1)");
  bench::add_jobs_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");
  const ParallelOptions jobs = bench::jobs_from_cli(cli);

  ExperimentConfig config;  // paper 1 GB geometry, UAA, event engine
  config.spare_scheme = "none";
  const std::vector<LifetimeResult> runs =
      run_over_seeds({&config, 1}, seeds, 42, jobs).front();

  Table table({"seed", "normalized lifetime (%)", "realized q = EH/EL",
               "Eq.(5) linear-model (%)"});
  table.set_title(
      "Figure 1 - lifetime of the ideal scenario (100%) vs UAA, unprotected "
      "1 GB / 2048-region bank");

  RunningStats measured;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    config.seed = 42 + s;
    const LifetimeResult& r = runs[s];
    measured.add(r.normalized);

    // Rebuild the same endurance map to report the realized spread and the
    // linear-model prediction Eq. (5) for it.
    Rng rng(config.seed);
    const EnduranceModel model(config.endurance);
    const EnduranceMap map =
        EnduranceMap::from_model(config.geometry, model, rng);
    const double q = map.max_line_endurance() / map.min_line_endurance();
    LinearLifetimeModel lin;
    lin.num_lines = static_cast<double>(config.geometry.num_lines());
    lin.e_low = map.min_line_endurance();
    lin.e_high = map.max_line_endurance();
    table.add_row({Cell{static_cast<std::int64_t>(config.seed)},
                   Cell{bench::pct(r.normalized)}, Cell{q},
                   Cell{bench::pct(lin.uaa_fraction_of_ideal())}});
  }
  table.print(std::cout);

  if (cli.get_bool("histogram")) {
    Rng rng(42);
    const EnduranceModel model(config.endurance);
    const EnduranceMap map =
        EnduranceMap::from_model(config.geometry, model, rng);
    std::vector<double> region_endurance;
    region_endurance.reserve(config.geometry.num_regions());
    for (std::uint64_t r = 0; r < config.geometry.num_regions(); ++r) {
      region_endurance.push_back(
          map.region_endurance(RegionId{r}) / config.endurance.endurance_at_mean);
    }
    Histogram hist(0.0, 10.0, 25);
    hist.add_all(region_endurance);
    std::cout << "region endurance distribution (x = endurance / endurance "
                 "at mean current; Fig. 1's red curve; values beyond 10 are "
                 "clamped into the last bucket):\n"
              << hist.ascii(40) << "\n";
  }

  std::cout << "mean measured UAA lifetime: " << bench::pct(measured.mean())
            << "% of ideal  (paper: 4.1%)\n"
            << "paper spot check: \"If EH is 50 times more than EL, LUAA "
               "will be only 3.9%\"; Eq.(5) at q=50 gives "
            << bench::pct(2.0 / 51.0) << "%\n";
  return 0;
}
