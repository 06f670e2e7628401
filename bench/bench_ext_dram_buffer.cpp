// Extension bench (§3.3.2): a DRAM write buffer in front of the NVM.
//
// "The DRAM buffer is able to cache the hot accessed lines. UAA has uniform
// write accesses, and therefore the DRAM buffer does not work." The bench
// runs hotspot, BPA and UAA against increasing buffer sizes and reports the
// absorption rate and the attacker cost (writes issued per NVM write).

#include <iostream>

#include "sim/experiment.h"
#include "util/cli.h"
#include "util/table.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Extension: DRAM front buffer vs the attack models");
  cli.add_flag("lines", "device size in lines", "2048");
  cli.add_flag("regions", "region count", "128");
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t lines = cli.get_uint("lines");
  const std::uint64_t regions = cli.get_uint("regions");

  Table table({"attack", "buffer (lines)", "absorbed (%)",
               "device lifetime used (%)"});
  table.set_title(
      "DRAM buffer absorption by attack (write cap = 2M attacker writes)");
  table.set_precision(1);

  for (const std::string attack : {"hotspot", "bpa", "uaa"}) {
    for (std::uint64_t buffer : {16ULL, 64ULL, 256ULL}) {
      ExperimentConfig c = scaled_stochastic_config(lines, regions, 2e4);
      c.attack = attack;
      c.wear_leveler = "none";
      c.spare_scheme = "none";
      c.dram_buffer_lines = buffer;
      c.max_user_writes = 2'000'000;
      c.seed = 9;
      const LifetimeResult r = run_experiment(c);
      const double absorbed =
          100.0 * static_cast<double>(r.absorbed_writes) / r.user_writes;
      const double wear_used =
          100.0 * static_cast<double>(r.device_writes) / r.ideal_lifetime;
      table.add_row({Cell{attack}, Cell{static_cast<std::int64_t>(buffer)},
                     Cell{absorbed}, Cell{r.failed ? 100.0 : wear_used}});
    }
  }
  table.print(std::cout);
  std::cout << "shape target: hotspot absorbed ~100% once its working set "
               "fits; BPA mostly absorbed (a burst is a cache-resident "
               "working set of one); UAA absorbed ~0% at any realistic "
               "buffer size (§3.3.2) — the buffer-defeating attack is "
               "exactly the uniform sweep.\n";
  return 0;
}
