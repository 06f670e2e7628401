// Figure 5: analytic lifetime comparison of Max-WE, PCD/PS and PS-worst
// over spare ratio p in [0.1, 0.3] and variation degree q in [10, 100]
// (Eqs. (6)-(8), normalized to the ideal lifetime of Eq. (3)).

#include <iostream>

#include "core/analytic.h"
#include "util/cli.h"
#include "util/table.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Figure 5: analytic lifetime surface (linear endurance model)");
  cli.add_flag("p-steps", "grid points along the spare-ratio axis", "5");
  cli.add_flag("q-steps", "grid points along the variation axis", "10");
  cli.add_switch("csv", "emit CSV instead of the ASCII table");
  if (!cli.parse(argc, argv)) return 0;

  const auto surface = fig5_surface(
      0.1, 0.3, static_cast<std::uint32_t>(cli.get_uint("p-steps")), 10.0,
      100.0, static_cast<std::uint32_t>(cli.get_uint("q-steps")));

  Table table({"p = S/N", "q = EH/EL", "Max-WE", "PCD/PS", "PS-worst"});
  table.set_title(
      "Figure 5 - normalized lifetime, linear endurance model (Eqs. 6-8)");
  table.set_precision(3);
  for (const auto& pt : surface) {
    table.add_row({Cell{pt.p}, Cell{pt.q}, Cell{pt.maxwe}, Cell{pt.pcd_ps},
                   Cell{pt.ps_worst}});
  }
  if (cli.get_bool("csv")) {
    std::cout << table.csv();
  } else {
    table.print(std::cout);
  }

  const Fig5Point spot = fig5_point(0.1, 50.0);
  std::cout << "spot check p=0.1, q=50 -> Max-WE " << 100 * spot.maxwe
            << "%, PCD/PS " << 100 * spot.pcd_ps << "%, PS-worst "
            << 100 * spot.ps_worst
            << "%  (paper: 38.1%, 22.2%, 20.8%)\n";
  return 0;
}
