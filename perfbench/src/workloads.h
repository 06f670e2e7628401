// The benchmark's four workloads: what they run, how a timed run and a
// traced run measure them, and how their outputs are checked.
//
// Every workload is a closed-loop batch job from one process: the next
// device starts when the previous one ends (the fleet runs two workers).
// Device inputs derive only from the seed, so the same seed gives the same
// devices; each device lifetime is one operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/fleet.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Seed whose per-device results are recorded in the reference tables;
  /// matches the seed the corresponding bench_*/fleet_sim run uses.
  std::uint64_t default_seed{0};
  /// True for the run_fleet workload, false for run_experiments ones.
  bool fleet{false};
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has this name.
const Workload* find_workload(const std::string& name);

/// The run_experiments batch of a non-fleet workload at `seed`. `small`
/// shrinks the geometry (same attacks, levelers and schemes) for the
/// fidelity test.
std::vector<nvmsec::ExperimentConfig> experiment_configs(
    const Workload& w, std::uint64_t seed, bool small = false);

/// The fleet workload's population at `seed`; `small` keeps the device
/// shape and cuts the population to a few shards.
nvmsec::FleetSpec fleet_spec(std::uint64_t seed, bool small = false);

/// The same device run_fleet runs as device `index` of `spec`.
nvmsec::ExperimentConfig fleet_device_config(const nvmsec::FleetSpec& spec,
                                             std::uint64_t index);

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

struct Outcome {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
};

/// Untraced run: boot the workload's devices several times (setup_s), then
/// repeat the whole batch until `seconds` have passed, checking every
/// pass's outputs. Reports the end-to-end metrics. `scratch_dir` holds the
/// fleet journal. Human-readable report lines go to stdout. `small` runs
/// the fidelity-test sizes, where no recorded results apply.
Outcome run_timed(const Workload& w, std::uint64_t seed, double seconds,
                  const std::string& scratch_dir, bool small = false);

/// Traced run: the decorated pipeline next to untraced, profiled and
/// (where the layer exists) warm-workspace runs of the same devices.
/// Reports the per-layer metrics.
Outcome run_traced_workload(const Workload& w, std::uint64_t seed,
                            const std::string& scratch_dir,
                            bool small = false);

}  // namespace perfbench
