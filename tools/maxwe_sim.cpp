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
#include <utility>

#include "experiment_flags.h"
#include "nvm/endurance_io.h"
#include "obs/session.h"
#include "sim/event_sim.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "spare/spare_scheme.h"
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

// Run-level results published after either engine finishes.
void publish_result(nvmsec::MetricsRegistry* metrics,
                    const nvmsec::LifetimeResult& r) {
  if (metrics == nullptr) return;
  metrics->gauge("result.normalized_lifetime").set(r.normalized);
  metrics->gauge("result.ideal_lifetime").set(r.ideal_lifetime);
  metrics->gauge("result.failed").set(r.failed ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli(
      "maxwe-sim: NVM lifetime simulator (Max-WE / DAC'19 reproduction)");
  add_experiment_flags(cli, "0", "1e8");
  cli.add_flag("buffer-lines", "DRAM front-buffer lines (0 = none)", "0");
  cli.add_flag("seed", "RNG seed", "42");
  cli.add_flag("seeds", "average over N seeds (seed, seed+1, ...)", "1");
  cli.add_flag("banks", "multi-bank module: independent banks (1 = single)",
               "1");
  cli.add_flag("jobs",
               "worker threads for --seeds/--banks sweeps (0 = all cores, "
               "1 = the calling thread only)", "0");
  cli.add_flag("save-map", "write the endurance map CSV here and exit", "");
  cli.add_flag("load-map", "read the endurance map from this CSV", "");
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
               "cache/chunk counters, worker utilization; wall-clock, so "
               "excluded from byte-identity — feed to maxwe_profile)", "");
  cli.add_flag("checkpoint-out",
               "crash-safe checkpoint file: engine state every "
               "--checkpoint-interval writes (single stochastic run), or "
               "completed-run records (--seeds/--banks sweeps)", "");
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
    const auto banks = static_cast<std::uint32_t>(cli.get_uint("banks"));
    if (banks > 1 && seeds > 1) {
      std::cerr << "error: --banks and --seeds cannot be combined\n";
      return 1;
    }

    const std::string checkpoint_out = cli.get_string("checkpoint-out");
    const WriteCount checkpoint_interval = cli.get_uint("checkpoint-interval");
    const bool resume = cli.get_bool("resume");
    const std::string load_map = cli.get_string("load-map");
    if (!load_map.empty()) {
      // A loaded map runs through a pipeline of its own: the event engine
      // at uniform rates with the chosen spare scheme and nothing else.
      // Refuse every flag it would otherwise silently ignore.
      const std::pair<const char*, bool> ignored[] = {
          {"--mode", config.mode != SimulationMode::kUniformEvent},
          {"--attack-phases", !cli.get_string("attack-phases").empty()},
          {"--attack-onset", cli.get_uint("attack-onset") > 0},
          {"--attack", config.attack != "uaa" && config.attack != "random"},
          {"--wl", config.wear_leveler != "none"},
          {"--seeds", seeds > 1},
          {"--banks", banks > 1},
          {"--max-writes", config.max_user_writes > 0},
          {"--buffer-lines", config.dram_buffer_lines > 0},
          {"--detect", config.detect},
          {"--adaptive", config.adaptive},
          {"--fault-stuck-at", config.fault.device.stuck_at_lines > 0},
          {"--fault-early-death", config.fault.device.early_death_lines > 0},
          {"--fault-outlier-regions",
           config.fault.device.outlier_regions > 0},
          {"--fault-flip-interval", config.fault.metadata.flip_interval > 0},
          {"--checkpoint-out", !checkpoint_out.empty()},
          {"--checkpoint-interval", checkpoint_interval > 0},
          {"--resume", resume},
      };
      for (const auto& [flag, given] : ignored) {
        if (given) {
          std::cerr << "error: --load-map runs uniform-rate event-mode "
                       "wear (uaa/random) with a spare scheme only; drop "
                    << flag << "\n";
          return 1;
        }
      }
    }
    if (resume && checkpoint_out.empty()) {
      std::cerr << "error: --resume needs --checkpoint-out\n";
      return 1;
    }
    if (banks > 1 || seeds > 1) {
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
    // A loaded map replaces the generated one via a dedicated run below:
    // run_experiment regenerates the map from the model, so this replicates
    // its event-mode pipeline over the loaded map — optional line jitter,
    // then the spare scheme run_experiment would build.
    if (!load_map.empty()) {
      log_info() << "loading endurance map from " << load_map;
      auto map =
          std::make_shared<EnduranceMap>(load_endurance_csv(load_map).take());
      config.geometry = map->geometry();
      Rng rng(config.seed);
      if (config.line_jitter_sigma > 0) {
        map->apply_line_jitter(config.line_jitter_sigma, rng);
      }
      const std::unique_ptr<SpareScheme> spare =
          build_spare_scheme(config, map, rng);
      UniformEventSimulator sim(map, *spare);
      sim.set_observer(config.observer);
      const LifetimeResult r = sim.run();
      if (obs) {
        publish_result(obs->metrics(), r);
        obs->finalize();
      }
      std::cout << "normalized lifetime: " << 100.0 * r.normalized
                << "%  (user writes " << r.user_writes << ", line deaths "
                << r.line_deaths << ")\n";
      return 0;
    }

    // Multi-bank module lifetime: banks fan out across --jobs workers.
    if (banks > 1) {
      const MultiBankResult r = run_multi_bank(config, banks, parallel);
      if (obs) obs->finalize();
      std::cout << "attack=" << config.attack << " wl=" << config.wear_leveler
                << " spare=" << config.spare_scheme << " banks=" << banks
                << " base seed=" << config.seed << "\n"
                << "system lifetime:     " << 100.0 * r.system_normalized
                << "%  (weakest bank " << r.weakest_bank << ")\n"
                << "mean bank lifetime:  " << 100.0 * r.mean_bank << "%\n"
                << "max bank lifetime:   " << 100.0 * r.max_bank << "%\n";
      return 0;
    }

    // Seed sweep: N independent runs, deterministic seed-order reduction.
    if (seeds > 1) {
      std::vector<ExperimentConfig> sweep(seeds, config);
      for (std::uint64_t s = 0; s < seeds; ++s) {
        sweep[s].seed = config.seed + s;
      }
      const std::vector<LifetimeResult> results =
          run_experiments(sweep, parallel);
      RunningStats stats;
      for (const LifetimeResult& r : results) stats.add(r.normalized);
      if (obs) obs->finalize();
      std::cout << "attack=" << config.attack << " wl=" << config.wear_leveler
                << " spare=" << config.spare_scheme << " seeds=" << config.seed
                << ".." << config.seed + seeds - 1 << "\n"
                << "normalized lifetime: " << 100.0 * stats.mean()
                << "%  (stddev " << 100.0 * stats.stddev() << " pp, min "
                << 100.0 * stats.min() << "%, max " << 100.0 * stats.max()
                << "%)\n";
      return 0;
    }

    const LifetimeResult r = run_experiment(config);
    if (obs) {
      publish_result(obs->metrics(), r);
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
