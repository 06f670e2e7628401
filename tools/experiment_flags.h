// The experiment flags maxwe_sim and fleet_sim share.
//
// Both tools describe one device run the same way: simulation mode,
// geometry, endurance model, attack, detector, wear leveler, spare scheme,
// bit-level knobs and device faults. add_experiment_flags registers those
// flags once, and apply_experiment_flags is the one mapping from them to an
// ExperimentConfig. Each tool registers and maps only its own flags on top.
#pragma once

#include <string>

#include "sim/experiment.h"
#include "util/cli.h"

namespace nvmsec {

/// Register the shared flags. Only two defaults differ between the tools:
/// the device size (`--lines`, 0 = the paper's 1 GB geometry) and the mean
/// endurance (`--endurance-mean`).
void add_experiment_flags(CliParser& cli, const std::string& lines_default,
                          const std::string& endurance_mean_default);

/// Set the config fields the shared flags name. Payload, codec and ECP are
/// set only under `--mode bit`, since config_fingerprint hashes them.
/// Throws std::invalid_argument on a value the parser refuses, an unknown
/// `--mode`, or `--attack-onset` given together with `--attack-phases`.
void apply_experiment_flags(const CliParser& cli, ExperimentConfig& config);

}  // namespace nvmsec
