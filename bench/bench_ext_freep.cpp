// Extension bench (§2.2.2): FREE-p vs Max-WE — lifetime AND translation
// latency.
//
// FREE-p spends no SRAM but walks pointer chains through the array;
// Max-WE spends 0.16 MB of SRAM for O(1) translation. This bench runs both
// to failure under UAA at the same spare budget and prices the difference
// with the latency model.

#include <iostream>
#include <memory>

#include "core/latency_model.h"
#include "core/maxwe.h"
#include "core/overhead.h"
#include "sim/event_sim.h"
#include "spare/freep.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Extension: FREE-p vs Max-WE, lifetime and latency");
  cli.add_flag("seeds", "endurance-map draws to average", "3");
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seeds = cli.get_uint("seeds");

  const DeviceGeometry geometry = DeviceGeometry::paper_1gb();
  double freep_lifetime = 0, maxwe_lifetime = 0, freep_hops = 0;
  double freep_max_chain = 0;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    Rng rng(42 + s);
    const EnduranceModel model;
    auto map = std::make_shared<EnduranceMap>(
        EnduranceMap::from_model(geometry, model, rng));
    const std::uint64_t spare_lines = geometry.num_lines() / 10;

    auto freep = std::make_unique<FreeP>(map, spare_lines);
    UniformEventSimulator sim_freep(map, *freep);
    freep_lifetime += sim_freep.run().normalized;
    freep_hops += freep->mean_pointer_hops();
    freep_max_chain =
        std::max(freep_max_chain, static_cast<double>(freep->max_chain_depth()));

    auto maxwe = make_maxwe(map, MaxWeParams{});
    UniformEventSimulator sim_maxwe(map, *maxwe);
    maxwe_lifetime += sim_maxwe.run().normalized;
  }
  freep_lifetime /= static_cast<double>(seeds);
  maxwe_lifetime /= static_cast<double>(seeds);
  freep_hops /= static_cast<double>(seeds);

  const LatencyModelParams latency;
  const TranslationLatency maxwe_lat = table_translation_latency(latency);
  const TranslationLatency freep_lat =
      pointer_chain_latency(latency, freep_hops);
  const auto overhead = mapping_overhead(
      MappingOverheadInputs::from_geometry(geometry, 0.10, 0.90));

  Table table({"scheme", "UAA lifetime (%)", "SRAM (MB)",
               "mean access latency (ns)", "latency overhead"});
  table.set_title(
      "FREE-p vs Max-WE at a 10% spare budget (latency: end-of-life "
      "average; FREE-p hops grow as lines fail)");
  table.set_precision(2);
  table.add_row({Cell{std::string{"FREE-p"}}, Cell{100 * freep_lifetime},
                 Cell{0.0}, Cell{freep_lat.mean_access_ns},
                 Cell{freep_lat.relative}});
  table.add_row({Cell{std::string{"Max-WE"}}, Cell{100 * maxwe_lifetime},
                 Cell{overhead.maxwe_total_mb()},
                 Cell{maxwe_lat.mean_access_ns}, Cell{maxwe_lat.relative}});
  table.print(std::cout);
  std::cout << "FREE-p mean pointer hops at death: " << freep_hops
            << " (max chain " << freep_max_chain
            << "); Max-WE keeps translation O(1) for " << std::fixed
            << overhead.maxwe_total_mb()
            << " MB of SRAM — §4.1's design argument, priced.\n";
  return 0;
}
