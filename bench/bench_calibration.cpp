// Endurance-model calibration sweep (EXPERIMENTS.md, "Endurance model
// calibration").
//
// The paper's printed formula (E ~ I^-12), its §2.1 worked example
// (implies E ~ I^-6) and its headline UAA measurement (4.1% of ideal,
// implying an exponent near 8) are mutually inconsistent; this bench makes
// the trade-off visible by sweeping the exponent and reporting the four
// §5.3.1 quantities at each value. The library defaults to k = 8.

#include <iostream>

#include "bench_common.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Calibration: endurance power-law exponent sweep under UAA");
  cli.add_flag("seeds", "endurance-map draws to average", "2");
  bench::add_jobs_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");
  const ParallelOptions jobs = bench::jobs_from_cli(cli);

  Table table({"exponent k (E ~ I^-k)", "unprotected (%)", "Max-WE (%)",
               "PCD (%)", "PS-worst (%)"});
  table.set_title(
      "Endurance-model calibration, UAA, 1 GB / 2048 regions, 10% spares "
      "(paper targets: 4.1 / 43.1 / 30.6 / 28.5)");
  table.set_precision(1);

  for (double k : {6.0, 7.0, 8.0, 9.0, 10.0, 12.0}) {
    ExperimentConfig base;
    base.endurance.endurance_exponent = k;
    auto lifetime = [&](const std::string& scheme) {
      ExperimentConfig c = base;
      c.spare_scheme = scheme;
      return bench::pct(bench::mean_normalized_lifetime(c, seeds, 42, jobs));
    };
    table.add_row({Cell{k}, Cell{lifetime("none")}, Cell{lifetime("maxwe")},
                   Cell{lifetime("pcd")}, Cell{lifetime("ps-worst")}});
  }
  table.print(std::cout);
  std::cout << "k=6 matches §2.1's \"56x for 512 domains\" example; k=8 "
               "(library default) matches the 4.1% headline while keeping "
               "the §5.3.1 ordering; the printed formula's k=12 matches "
               "neither.\n";
  return 0;
}
