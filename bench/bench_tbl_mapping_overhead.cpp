// §4.4 / §5.3.2: mapping-table storage overhead.
//
// Paper numbers for 1 GB / 2048 regions / 10% spares / 90% SWRs:
//   Max-WE ~0.16 MB vs traditional line-level ~1.1 MB -> 15.0% (85%
//   reduction), i.e. 0.016% of total capacity.
//
// Prints both the paper's closed-form model and the exact bit cost of a
// constructed MaxWe instance (they differ only by ceil() on the pointer
// widths).

#include <iostream>
#include <memory>

#include "core/maxwe.h"
#include "core/overhead.h"
#include "util/cli.h"
#include "util/table.h"

int bench_main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Table (§5.3.2): mapping-table storage overhead");
  if (!cli.parse(argc, argv)) return 0;

  const DeviceGeometry geometry = DeviceGeometry::paper_1gb();

  Table table({"SWR share q (%)", "LMT (MB)", "RMT (MB)", "wot tags (MB)",
               "Max-WE total (MB)", "traditional (MB)", "ratio (%)"});
  table.set_title(
      "§5.3.2 - mapping-table overhead, 1 GB / 2048 regions / 10% spares");
  table.set_precision(3);
  const auto mb = [](double bits) { return bits / 8.0 / 1024.0 / 1024.0; };
  for (double q : {0.0, 0.2, 0.6, 0.8, 0.9, 1.0}) {
    const auto out = mapping_overhead(
        MappingOverheadInputs::from_geometry(geometry, 0.1, q));
    table.add_row({Cell{100.0 * q}, Cell{mb(out.lmt_bits)},
                   Cell{mb(out.rmt_bits)}, Cell{mb(out.wear_out_tag_bits)},
                   Cell{out.maxwe_total_mb()}, Cell{out.traditional_mb()},
                   Cell{100.0 * out.ratio}});
  }
  table.print(std::cout);

  const auto paper_point = mapping_overhead(
      MappingOverheadInputs::from_geometry(geometry, 0.1, 0.9));
  std::cout << "operating point q=90%: " << paper_point.maxwe_total_mb()
            << " MB vs " << paper_point.traditional_mb() << " MB = "
            << 100.0 * paper_point.ratio
            << "% (paper: 0.16 MB vs 1.1 MB = 15.0%)\n"
            << "as a fraction of the 1 GB capacity: "
            << 100.0 * paper_point.maxwe_total_bits / 8.0 /
                   static_cast<double>(geometry.total_bytes())
            << "% (paper abstract: 0.016%)\n";

  // Cross-check with a real instance built on a sampled endurance map.
  Rng rng(42);
  const EnduranceModel model;
  auto map = std::make_shared<EnduranceMap>(
      EnduranceMap::from_model(geometry, model, rng));
  const MaxWe instance(map, MaxWeParams{});
  std::cout << "constructed MaxWe instance (exact bit accounting): "
            << static_cast<double>(instance.mapping_overhead_bits()) / 8.0 /
                   1024.0 / 1024.0
            << " MB\n";
  return 0;
}
