// §5.3.1's headline comparison under UAA at 10% spares (full-size device):
//   Max-WE 43.1% (9.5x), PCD/PS 30.6% (7.4x), PS-worst 28.5% (6.9x),
//   Max-WE beating PCD/PS by 40.7% and PS-worst by 51.1%.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "util/cli.h"
#include "util/table.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Table (§5.3.1): lifetime under UAA at 10% spares");
  cli.add_flag("seeds", "endurance-map draws to average", "3");
  cli.add_switch("csv", "emit CSV instead of the ASCII table");
  cli.add_flag("spare", "spare fraction of total capacity", "0.10");
  bench::add_jobs_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");
  const double spare = cli.get_double("spare");
  const ParallelOptions jobs = bench::jobs_from_cli(cli);

  // Paper geometry, UAA, event engine; one config per table row.
  std::vector<ExperimentConfig> configs;
  for (const char* scheme : {"none", "maxwe", "pcd", "ps", "ps-worst"}) {
    ExperimentConfig& c = configs.emplace_back();
    c.spare_fraction = spare;
    c.spare_scheme = scheme;
  }
  const auto runs = run_over_seeds(configs, seeds, 42, jobs);

  struct Row {
    const char* name;
    StreamSummary measured;
    double paper_pct;
    double paper_factor;
  };
  const Row rows[] = {
      {"unprotected", bench::summarize(runs[0]), 4.1, 1.0},
      {"Max-WE", bench::summarize(runs[1]), 43.1, 9.5},
      {"PCD", bench::summarize(runs[2]), 30.6, 7.4},
      {"PS (average)", bench::summarize(runs[3]), 30.6, 7.4},
      {"PS-worst", bench::summarize(runs[4]), 28.5, 6.9},
  };
  Table table({"scheme", "lifetime (%)", "stddev (pp)", "min (%)", "max (%)",
               "improvement vs unprotected", "paper lifetime (%)",
               "paper improvement"});
  table.set_title("§5.3.1 - lifetime under UAA, spare capacity = " +
                  std::to_string(100 * spare) + "% of total, " +
                  std::to_string(seeds) + " seeds");
  table.set_precision(1);
  for (const Row& r : rows) {
    table.add_row({Cell{std::string{r.name}}, Cell{bench::pct(r.measured.mean())},
                   Cell{bench::pct(r.measured.stddev())},
                   Cell{bench::pct(r.measured.min())},
                   Cell{bench::pct(r.measured.max())},
                   Cell{r.measured.mean() / rows[0].measured.mean()},
                   Cell{r.paper_pct}, Cell{r.paper_factor}});
  }
  if (cli.get_bool("csv")) {
    std::cout << table.csv();
  } else {
    table.print(std::cout);
  }

  std::cout << "Max-WE vs PCD/PS: +"
            << 100.0 * (rows[1].measured.mean() / rows[2].measured.mean() - 1.0)
            << "% (paper: +40.7%); vs PS-worst: +"
            << 100.0 * (rows[1].measured.mean() / rows[4].measured.mean() - 1.0)
            << "% (paper: +51.1%)\n";
  return 0;
}
