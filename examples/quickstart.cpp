// Quickstart: the paper's headline experiment in ~40 lines.
//
// Builds the evaluation configuration (1 GB PCM bank, 2048 regions,
// Zhang&Li endurance variation), launches the Uniform Address Attack
// against an unprotected device and against Max-WE, and prints the
// normalized lifetimes plus the mapping-table overhead — the numbers
// behind the paper's abstract (4.1% -> 9.5x improvement, 0.016% mapping
// overhead).
//
// Run: build/examples/quickstart [--seed N]

#include <cstdio>
#include <iostream>

#include "core/overhead.h"
#include "sim/experiment.h"
#include "util/cli.h"

namespace {

int run(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli("Max-WE quickstart: UAA vs. an unprotected and a protected "
                "1 GB NVM bank");
  cli.add_flag("seed", "RNG seed for the endurance map draw", "42");
  if (!cli.parse(argc, argv)) return 0;

  ExperimentConfig config;  // defaults: paper 1 GB geometry, UAA, event mode
  config.seed = cli.get_uint("seed");

  config.spare_scheme = "none";
  const LifetimeResult unprotected = run_experiment(config);

  config.spare_scheme = "maxwe";  // 10% spares, 90% of them SWRs (paper §5.2)
  const LifetimeResult protected_run = run_experiment(config);

  const auto overhead = mapping_overhead(MappingOverheadInputs::from_geometry(
      config.geometry, config.spare_fraction, config.swr_fraction));

  std::printf("Uniform Address Attack on a 1 GB NVM bank (2048 regions)\n");
  std::printf("  unprotected : %6.2f%% of ideal lifetime\n",
              100.0 * unprotected.normalized);
  std::printf("  Max-WE      : %6.2f%% of ideal lifetime  (%.1fx better)\n",
              100.0 * protected_run.normalized,
              protected_run.normalized / unprotected.normalized);
  std::printf("  mapping overhead: %.3f MB (vs %.3f MB line-level, %.1f%%)\n",
              overhead.maxwe_total_mb(), overhead.traditional_mb(),
              100.0 * overhead.ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
