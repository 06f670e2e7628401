// maxwe-sim: the command-line front end to the whole simulator.
//
// One binary, every knob. Examples:
//
//   # the paper's headline numbers
//   maxwe_sim --attack uaa --spare maxwe
//   maxwe_sim --attack uaa --spare none
//
//   # Fig. 8-style run on a scaled device
//   maxwe_sim --mode stochastic --lines 2048 --regions 128
//             --endurance-mean 5e4 --attack bpa --wl wawl --spare maxwe
//
//   # persist / reuse an endurance map
//   maxwe_sim --save-map map.csv
//   maxwe_sim --load-map map.csv --spare pcd

#include <filesystem>
#include <iostream>
#include <memory>

#include "experiment_flags.h"
#include "nvm/endurance_io.h"
#include "obs/session.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/stats.h"

namespace {

// --snapshot-interval without --snapshot-out derives the path from the
// metrics file ("m.json" -> "m.snapshots.jsonl") so one flag is enough.
std::string derive_snapshot_path(const std::string& metrics_path) {
  if (metrics_path.empty()) return "wear.snapshots.jsonl";
  const std::size_t dot = metrics_path.rfind('.');
  const std::size_t slash = metrics_path.rfind('/');
  const std::string stem =
      (dot == std::string::npos || (slash != std::string::npos && dot < slash))
          ? metrics_path
          : metrics_path.substr(0, dot);
  return stem + ".snapshots.jsonl";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli(
      "maxwe-sim: NVM lifetime simulator (Max-WE / DAC'19 reproduction)");
  add_experiment_flags(cli, "0", "1e8");
  cli.add_flag("buffer-lines", "DRAM front-buffer lines (0 = none)", "0");
  cli.add_flag("seed", "RNG seed", "42");
  cli.add_flag("seeds",
               "average over N seeds (seed, seed+1, ...); the minimum is an "
               "N-bank module's lifetime", "1");
  cli.add_flag("jobs",
               "worker threads for --seeds sweeps (0 = all cores, 1 = the "
               "calling thread only)", "0");
  cli.add_flag("save-map", "write the endurance map CSV here and exit", "");
  cli.add_flag("load-map",
               "run on the endurance map in this CSV instead of drawing one "
               "(geometry from the file)", "");
  cli.add_flag("metrics-out", "write run metrics (counters/gauges) here", "");
  cli.add_flag("metrics-format", "metrics file format: json | csv", "json");
  cli.add_flag("trace-out",
               "write a Chrome-trace event file here (open in Perfetto)", "");
  cli.add_flag("snapshot-out",
               "wear-snapshot JSONL path (default: derived from "
               "--metrics-out)", "");
  cli.add_flag("snapshot-interval",
               "emit a wear snapshot every N user writes (0 = off)", "0");
  cli.add_flag("events-out",
               "decision event log (JSONL flight recorder; feed to "
               "maxwe_report)", "");
  cli.add_flag("profile-out",
               "write the aggregate self-profile JSON here (phase timings, "
               "buffer/chunk counters, worker utilization; wall-clock, so "
               "excluded from byte-identity — feed to maxwe_profile)", "");
  cli.add_flag("checkpoint-out",
               "crash-safe checkpoint file: engine state every "
               "--checkpoint-interval writes (single stochastic run), or "
               "completed-run records (--seeds sweeps)", "");
  cli.add_flag("checkpoint-interval",
               "user writes between engine checkpoints (single stochastic "
               "run; 0 = off)", "0");
  cli.add_switch("resume",
                 "resume from --checkpoint-out if it exists, else start "
                 "fresh");
  cli.add_flag("fault-flip-interval",
               "metadata fault: flip one RMT/LMT bit every N user writes "
               "(0 = off; needs --spare maxwe --mode stochastic)", "0");
  cli.add_switch("verbose", "info-level logging");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  try {
    if (cli.get_bool("verbose")) set_log_level(LogLevel::kInfo);

    ExperimentConfig config;
    apply_experiment_flags(cli, config);
    config.dram_buffer_lines = cli.get_uint("buffer-lines");
    config.seed = cli.get_uint("seed");
    config.fault.metadata.flip_interval = cli.get_uint("fault-flip-interval");

    ParallelOptions parallel;
    parallel.jobs = static_cast<std::size_t>(cli.get_uint("jobs"));
    const std::uint64_t seeds = cli.get_uint("seeds");

    const std::string checkpoint_out = cli.get_string("checkpoint-out");
    const WriteCount checkpoint_interval = cli.get_uint("checkpoint-interval");
    const bool resume = cli.get_bool("resume");
    if (resume && checkpoint_out.empty()) {
      std::cerr << "error: --resume needs --checkpoint-out\n";
      return 1;
    }
    if (seeds > 1) {
      // Sweeps checkpoint at run granularity: each finished run's result is
      // recorded, and a resumed sweep re-runs only the missing ones.
      if (checkpoint_interval > 0) {
        std::cerr << "error: sweep checkpoints record whole runs; drop "
                     "--checkpoint-interval (it applies to single "
                     "stochastic runs)\n";
        return 1;
      }
      parallel.checkpoint_path = checkpoint_out;
      parallel.resume = resume;
    } else {
      if (!checkpoint_out.empty() && checkpoint_interval == 0 && !resume) {
        std::cerr << "error: --checkpoint-out needs --checkpoint-interval "
                     "(or --resume to finish a run without further "
                     "checkpoints)\n";
        return 1;
      }
      if (checkpoint_interval > 0) {
        config.checkpoint_out = checkpoint_out;
        config.checkpoint_interval = checkpoint_interval;
      }
      if (resume && std::filesystem::exists(checkpoint_out)) {
        config.resume_from = checkpoint_out;
      }
    }

    ObsConfig obs_config;
    obs_config.metrics_path = cli.get_string("metrics-out");
    obs_config.metrics_format = cli.get_string("metrics-format");
    obs_config.trace_path = cli.get_string("trace-out");
    obs_config.snapshot_interval = cli.get_uint("snapshot-interval");
    obs_config.snapshot_path = cli.get_string("snapshot-out");
    obs_config.events_path = cli.get_string("events-out");
    obs_config.profile_path = cli.get_string("profile-out");
    // The obs session must know up front whether this run restores from a
    // checkpoint: a resumed event log is appended to (and rewound to the
    // checkpoint's byte offset by the engine), not truncated.
    obs_config.resume = !config.resume_from.empty();
    if (obs_config.snapshot_interval > 0 && obs_config.snapshot_path.empty()) {
      obs_config.snapshot_path = derive_snapshot_path(obs_config.metrics_path);
    }
    std::unique_ptr<ObsSession> obs;
    if (obs_config.any()) {
      obs = std::make_unique<ObsSession>(obs_config);
      config.observer = obs->observer();
      // Single runs record straight into the session profiler via the
      // observer; sweep paths hand it to the runner, which gives every run
      // a private instance and merges them deterministically at the join.
      parallel.profiler = obs->profiler();
    }

    if (const std::string path = cli.get_string("save-map"); !path.empty()) {
      Rng rng(config.seed);
      const EnduranceModel model(config.endurance);
      const EnduranceMap map =
          EnduranceMap::from_model(config.geometry, model, rng);
      save_endurance_csv(map, path).throw_if_error();
      std::cout << "wrote " << config.geometry.num_regions()
                << " region endurances to " << path << "\n";
      return 0;
    }
    // A loaded map stands in for the model draw in every run below.
    if (const std::string path = cli.get_string("load-map"); !path.empty()) {
      log_info() << "loading endurance map from " << path;
      config.endurance_map = std::make_shared<const EnduranceMap>(
          load_endurance_csv(path).take());
      config.geometry = config.endurance_map->geometry();
    }

    // Seed sweep: N independent runs, deterministic seed-order reduction.
    // Seed s is bank s of an N-bank module, whose lifetime is the minimum.
    if (seeds > 1) {
      const std::vector<LifetimeResult> results =
          run_over_seeds({&config, 1}, seeds, config.seed, parallel).front();
      RunningStats stats;
      // On a tie, the weakest seed is the first one at the minimum.
      std::uint64_t weakest = 0;
      for (std::uint64_t s = 0; s < seeds; ++s) {
        stats.add(results[s].normalized);
        if (results[s].normalized < results[weakest].normalized) weakest = s;
      }
      if (obs) obs->finalize();
      std::cout << "attack=" << config.attack << " wl=" << config.wear_leveler
                << " spare=" << config.spare_scheme << " seeds=" << config.seed
                << ".." << config.seed + seeds - 1 << "\n"
                << "normalized lifetime: " << 100.0 * stats.mean()
                << "%  (stddev " << 100.0 * stats.stddev() << " pp, min "
                << 100.0 * stats.min() << "% (seed " << config.seed + weakest
                << "), max " << 100.0 * stats.max() << "%)\n";
      return 0;
    }

    const LifetimeResult r = run_experiment(config);
    if (obs) {
      if (MetricsRegistry* metrics = obs->metrics()) {
        metrics->gauge("result.normalized_lifetime").set(r.normalized);
        metrics->gauge("result.ideal_lifetime").set(r.ideal_lifetime);
        metrics->gauge("result.failed").set(r.failed ? 1.0 : 0.0);
      }
      obs->finalize();
      if (!obs_config.metrics_path.empty()) {
        std::cout << "metrics:   " << obs_config.metrics_path << "\n";
      }
      if (!obs_config.trace_path.empty()) {
        std::cout << "trace:     " << obs_config.trace_path << "\n";
      }
      if (obs_config.snapshot_interval > 0) {
        std::cout << "snapshots: " << obs_config.snapshot_path << "\n";
      }
      if (!obs_config.events_path.empty()) {
        std::cout << "events:    " << obs_config.events_path << "\n";
      }
      if (!obs_config.profile_path.empty()) {
        std::cout << "profile:   " << obs_config.profile_path << "\n";
      }
    }
    std::cout << "attack=" << config.attack << " wl=" << config.wear_leveler
              << " spare=" << config.spare_scheme << " seed=" << config.seed
              << "\n"
              << "normalized lifetime: " << 100.0 * r.normalized << "%\n"
              << "user writes:         " << r.user_writes << "\n"
              << "overhead writes:     " << r.overhead_writes << "\n"
              // Buffer hits, plus (terminal stochastic chunks) user writes
              // credited for interleaving that never reached the device.
              << "absorbed writes:     " << r.absorbed_writes << "\n"
              << "line deaths:         " << r.line_deaths << "\n"
              << "outcome:             " << r.failure_reason << "\n";
    if (config.detect) {
      std::cout << "detector windows:    " << r.windows_observed
                << "  (anomalous " << r.anomalous_windows << ", in alarm "
                << r.windows_in_alarm << ")\n"
                << "alarms raised:       " << r.alarms_raised << "\n";
      if (config.adaptive) {
        std::cout << "cadence changes:     " << r.cadence_changes << "\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
