// fleet-sim: population-scale lifetime campaigns.
//
// Fans a device-population spec across worker threads, streams every
// per-device result into mergeable sketches (O(shards) memory, no
// per-device retention), and writes a deterministic fleet-result JSON for
// tools/fleet_report. Examples:
//
//   # 10k devices under UAA with Max-WE, 4 workers, live heartbeat
//   fleet_sim --devices 10000 --lines 2048 --regions 128
//             --endurance-mean 1000 --spare maxwe --jobs 4
//             --heartbeat-out /dev/stderr --out fleet_maxwe.json
//
//   # crash-safe 100k campaign: SIGKILL it, rerun the same line to resume
//   fleet_sim --devices 100000 --spare maxwe
//             --checkpoint-out fleet.ckpt --resume --out fleet.json
//
//   # mixed tenant population: 80% benign zipf, 20% BPA attackers
//   fleet_sim --devices 10000 --mode stochastic --wl tlsr --spare maxwe
//             --attack-mix "zipf:0.8,bpa:0.2" --out mix.json

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "experiment_flags.h"
#include "obs/heartbeat.h"
#include "obs/profiler.h"
#include "sim/fleet.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/log.h"

namespace {

// "zipf:0.8,bpa:0.2" -> AttackShare list. Whitespace-free, weight optional
// (defaults to 1, so "uaa,bpa" is an even split).
std::vector<nvmsec::AttackShare> parse_attack_mix(const std::string& text) {
  std::vector<nvmsec::AttackShare> mix;
  std::istringstream in(text);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    if (entry.empty()) continue;
    nvmsec::AttackShare share;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      share.attack = entry;
    } else {
      share.attack = entry.substr(0, colon);
      share.weight = std::stod(entry.substr(colon + 1));
    }
    mix.push_back(std::move(share));
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli("fleet-sim: sharded device-population lifetime campaigns");
  cli.add_flag("devices", "population size", "1000");
  cli.add_flag("seed-start", "device i runs with seed seed-start + i", "1");
  cli.add_flag("shard-size",
               "devices per shard (aggregation/checkpoint granularity)",
               "256");
  cli.add_flag("jobs",
               "worker threads (0 = all cores, 1 = the calling thread only)",
               "1");
  add_experiment_flags(cli, "2048", "1000");
  cli.add_flag("attack-mix",
               "weighted population mix, e.g. 'zipf:0.8,bpa:0.2' "
               "(overrides --attack; per-device pick is a stateless hash, "
               "independent of sharding)", "");
  cli.add_flag("event-log-cap",
               "per-device in-memory event cap; beyond it the failure "
               "cause falls back to the result classification", "65536");
  cli.add_flag("out", "fleet-result JSON path (default: stdout)", "");
  cli.add_flag("checkpoint-out",
               "crash-safe campaign journal (per-shard sketch state, one "
               "record appended per completed shard)", "");
  cli.add_switch("resume",
                 "resume from --checkpoint-out if it exists, else start "
                 "fresh");
  cli.add_flag("heartbeat-out",
               "live progress JSONL (devices/sec, ETA, running p50/p99, "
               "shard throughput, worker utilization)",
               "");
  cli.add_flag("profile-out",
               "write the campaign's aggregate self-profile JSON here "
               "(phase timings, counters, worker utilization; wall-clock, "
               "so excluded from byte-identity — feed to maxwe_profile)",
               "");
  cli.add_flag("heartbeat-interval",
               "completed devices between heartbeat lines", "1000");
  cli.add_flag("stop-after-shards",
               "stop after N newly-run shards (test hook: deterministic "
               "preemption; 0 = run to completion)", "0");
  cli.add_switch("verbose", "info-level logging");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  try {
    if (cli.get_bool("verbose")) set_log_level(LogLevel::kInfo);

    FleetSpec spec;
    spec.devices = cli.get_uint("devices");
    spec.seed_start = cli.get_uint("seed-start");
    spec.shard_size = cli.get_uint("shard-size");
    spec.event_log_max_events = cli.get_uint("event-log-cap");
    spec.attack_mix = parse_attack_mix(cli.get_string("attack-mix"));

    apply_experiment_flags(cli, spec.base);

    FleetOptions options;
    options.jobs = static_cast<std::size_t>(cli.get_uint("jobs"));
    options.checkpoint_path = cli.get_string("checkpoint-out");
    options.resume = cli.get_bool("resume");
    options.stop_after_shards = cli.get_uint("stop-after-shards");
    if (options.resume && options.checkpoint_path.empty()) {
      std::cerr << "error: --resume needs --checkpoint-out\n";
      return 1;
    }

    std::ofstream heartbeat_file;
    std::unique_ptr<HeartbeatSink> heartbeat;
    if (const std::string path = cli.get_string("heartbeat-out");
        !path.empty()) {
      heartbeat_file.open(path, std::ios::trunc);
      if (!heartbeat_file) {
        std::cerr << "error: cannot open --heartbeat-out '" << path << "'\n";
        return 1;
      }
      heartbeat = std::make_unique<HeartbeatSink>(
          heartbeat_file, cli.get_uint("heartbeat-interval"));
      options.heartbeat = heartbeat.get();
    }

    std::unique_ptr<Profiler> profiler;
    const std::string profile_path = cli.get_string("profile-out");
    if (!profile_path.empty()) {
      profiler = std::make_unique<Profiler>();
      options.profiler = profiler.get();
    }

    const std::uint64_t campaign_start = Profiler::now_ns();
    const FleetResult result = run_fleet(spec, options);
    if (profiler) {
      AtomicFileWriter writer(profile_path);
      writer.open_status().throw_if_error();
      writer.stream() << profiler->to_json(Profiler::now_ns() -
                                           campaign_start);
      writer.commit().throw_if_error();
      std::cerr << "profile: " << profile_path << "\n";
    }
    const std::string json = fleet_result_json(spec, result);
    if (const std::string path = cli.get_string("out"); !path.empty()) {
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::cerr << "error: cannot open --out '" << path << "'\n";
        return 1;
      }
      out << json;
      if (!out.flush()) {
        std::cerr << "error: short write to '" << path << "'\n";
        return 1;
      }
      std::cerr << "fleet result: " << path << " (" << result.shards_done
                << "/" << result.shards_total << " shards)\n";
    } else {
      std::cout << json;
    }
    if (!result.complete()) {
      std::cerr << "campaign incomplete (" << result.shards_done << "/"
                << result.shards_total
                << " shards); rerun with --resume to finish\n";
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
