// Extension bench: system-level lifetime across banks.
//
// A module dies with its first bank. As the bank count grows, the system
// lifetime is the minimum of independent per-bank draws — so a scheme's
// value at system scale depends on the *low tail* of its per-bank
// distribution, not its mean. Max-WE compresses that tail (its lifetime is
// an order statistic deep in the endurance distribution's bulk, not an
// extreme value), so its advantage widens with the bank count.

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
  const ParallelOptions jobs = bench::jobs_from_cli(cli);

  Table table({"banks", "unprotected system (%)", "Max-WE system (%)",
               "Max-WE mean bank (%)", "Max-WE advantage"});
  table.set_title(
      "System (min-over-banks) lifetime under UAA, 10% spares per bank");
  table.set_precision(2);

  for (std::uint32_t banks : {1u, 2u, 4u, 8u, 16u}) {
    ExperimentConfig c;
    c.geometry =
        DeviceGeometry::scaled(cli.get_uint("lines"), cli.get_uint("regions"));
    c.endurance.endurance_at_mean = 1e6;
    c.seed = 42;

    c.spare_scheme = "none";
    const MultiBankResult unprotected = run_multi_bank(c, banks, jobs);
    c.spare_scheme = "maxwe";
    const MultiBankResult maxwe = run_multi_bank(c, banks, jobs);

    table.add_row({Cell{static_cast<std::int64_t>(banks)},
                   Cell{100 * unprotected.system_normalized},
                   Cell{100 * maxwe.system_normalized},
                   Cell{100 * maxwe.mean_bank},
                   Cell{maxwe.system_normalized /
                        unprotected.system_normalized}});
  }
  table.print(std::cout);
  std::cout << "shape target: both system lifetimes fall with the bank "
               "count (extreme-value effect), but Max-WE's falls less — "
               "its advantage factor grows.\n";
  return 0;
}
