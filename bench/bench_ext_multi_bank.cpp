// Extension bench: system-level lifetime across banks.
//
// A module dies with its first bank. As the bank count grows, the system
// lifetime is the minimum of independent per-bank draws — so a scheme's
// value at system scale depends on the *low tail* of its per-bank
// distribution, not its mean. Max-WE compresses that tail (its lifetime is
// an order statistic deep in the endurance distribution's bulk, not an
// extreme value), so its advantage widens with the bank count.
//
// Bank b is seed 42 + b: one batch runs 16 seeds per scheme, and a k-bank
// module is the first k of them.

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Extension: module lifetime vs bank count under UAA");
  cli.add_flag("lines", "lines per bank", "65536");
  cli.add_flag("regions", "regions per bank", "512");
  bench::add_jobs_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  constexpr std::uint64_t kMaxBanks = 16;
  std::vector<ExperimentConfig> configs(2);
  for (ExperimentConfig& c : configs) {
    c.geometry =
        DeviceGeometry::scaled(cli.get_uint("lines"), cli.get_uint("regions"));
    c.endurance.endurance_at_mean = 1e6;
  }
  configs[0].spare_scheme = "none";
  configs[1].spare_scheme = "maxwe";
  const auto runs =
      run_over_seeds(configs, kMaxBanks, 42, bench::jobs_from_cli(cli));

  Table table({"banks", "unprotected system (%)", "Max-WE system (%)",
               "Max-WE mean bank (%)", "Max-WE advantage"});
  table.set_title(
      "System (min-over-banks) lifetime under UAA, 10% spares per bank");
  table.set_precision(2);

  // Running minimum over the banks so far, and the Max-WE banks' sum in
  // bank order; a row at 1, 2, 4, 8 and 16 banks.
  double unprotected = runs[0][0].normalized;
  double maxwe = runs[1][0].normalized;
  double maxwe_sum = 0;
  for (std::uint64_t b = 0; b < kMaxBanks; ++b) {
    unprotected = std::min(unprotected, runs[0][b].normalized);
    maxwe = std::min(maxwe, runs[1][b].normalized);
    maxwe_sum += runs[1][b].normalized;
    const std::uint64_t banks = b + 1;
    if ((banks & b) != 0) continue;
    table.add_row({Cell{static_cast<std::int64_t>(banks)},
                   Cell{100 * unprotected}, Cell{100 * maxwe},
                   Cell{100 * (maxwe_sum / static_cast<double>(banks))},
                   Cell{maxwe / unprotected}});
  }
  table.print(std::cout);
  std::cout << "shape target: both system lifetimes fall with the bank "
               "count (extreme-value effect), but Max-WE's falls less — "
               "its advantage factor grows.\n";
  return 0;
}
