// Extension bench: lifetime *distributions*, not just means.
//
// The paper reports mean normalized lifetimes; a deployment decision also
// needs the spread — how bad is the unlucky device? This bench draws many
// endurance maps and reports percentiles of the normalized lifetime for
// the §5.3.1 schemes under UAA. Spare-line replacement should compress the
// distribution as well as shift it: the unprotected lifetime is dominated
// by one extreme-value draw (the weakest line), while Max-WE's is set by
// an order statistic deep in the distribution's bulk.

#include <iostream>
#include <vector>

#include "sim/experiment.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Extension: lifetime distribution across endurance-map draws");
  cli.add_flag("draws", "endurance-map draws per scheme", "30");
  cli.add_flag("lines", "device size in lines", "65536");
  cli.add_flag("regions", "region count", "512");
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t draws = cli.get_uint("draws");

  Table table({"scheme", "p5 (%)", "median (%)", "p95 (%)", "mean (%)",
               "rel. spread (p95-p5)/median"});
  table.set_title("Normalized lifetime distribution under UAA, 10% spares, " +
                  std::to_string(draws) + " endurance-map draws");
  table.set_precision(2);

  for (const std::string scheme : {"none", "ps-worst", "pcd", "maxwe"}) {
    std::vector<double> lifetimes;
    lifetimes.reserve(draws);
    for (std::uint64_t d = 0; d < draws; ++d) {
      ExperimentConfig c;
      c.geometry = DeviceGeometry::scaled(cli.get_uint("lines"),
                                          cli.get_uint("regions"));
      c.endurance.endurance_at_mean = 1e6;
      c.spare_fraction = 0.10;
      c.spare_scheme = c.spare_lines() == 0 ? "none" : scheme;
      if (scheme == "none") c.spare_scheme = "none";
      c.seed = 1000 + d;
      lifetimes.push_back(100.0 * run_experiment(c).normalized);
    }
    const double p5 = percentile(lifetimes, 5);
    const double p50 = percentile(lifetimes, 50);
    const double p95 = percentile(lifetimes, 95);
    table.add_row({Cell{scheme}, Cell{p5}, Cell{p50}, Cell{p95},
                   Cell{mean(lifetimes)}, Cell{(p95 - p5) / p50}});
  }
  table.print(std::cout);
  std::cout << "shape target: Max-WE both shifts the distribution up and "
               "tightens it relative to the unprotected device (the min of "
               "~4M draws varies a lot; the 20th-percentile order statistic "
               "barely moves).\n";
  return 0;
}
