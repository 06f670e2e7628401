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
  cli.add_flag("mode", "event | stochastic | bit", "event");
  cli.add_flag("lines", "device size in lines (0 = paper 1 GB geometry)",
               "2048");
  cli.add_flag("regions", "region count (with --lines)", "128");
  cli.add_flag("endurance-mean", "endurance at mean current", "1000");
  cli.add_flag("endurance-exponent", "power-law exponent k (E ~ I^-k)", "8");
  cli.add_flag("jitter", "intra-region lognormal endurance jitter sigma",
               "0");
  cli.add_flag("attack", "uaa | bpa | hotspot | random | zipf | mixed",
               "uaa");
  cli.add_flag("attack-phases",
               "mixed-attack phase schedule 'name:writes,...' (k/m/g "
               "suffixes; writes 0 = terminal unbounded last phase, a "
               "bounded last phase cycles). Implies --attack mixed; "
               "stochastic mode only", "");
  cli.add_flag("attack-onset",
               "shorthand for --attack-phases 'zipf:N,uaa:0': benign zipf "
               "traffic for N writes, then a UAA that runs to failure "
               "(0 = off)", "0");
  cli.add_flag("attack-mix",
               "weighted population mix, e.g. 'zipf:0.8,bpa:0.2' "
               "(overrides --attack; per-device pick is a stateless hash, "
               "independent of sharding)", "");
  cli.add_flag("bpa-burst", "BPA burst length", "1024");
  cli.add_flag("zipf-skew", "zipf skew s", "0.99");
  cli.add_flag("hotspot-set", "hotspot working-set lines (>= 1)", "1");
  cli.add_switch("detect",
                 "per-device online attack detector (stochastic mode); "
                 "alarm stats stream into the population aggregate");
  cli.add_flag("detect-window",
               "detector window size in user writes", "16384");
  cli.add_switch("adaptive",
                 "self-tuning defense (needs --detect and a wear leveler): "
                 "retune the remap cadence from the alarm signal");
  cli.add_flag("adaptive-factor",
               "cadence multiplier per escalation step (> 1)", "2.0");
  cli.add_flag("adaptive-max-steps",
               "escalation bound in steps either direction", "3");
  cli.add_flag("wl", "none|startgap|tlsr|pcms|bwl|wawl|twl", "none");
  cli.add_flag("swap-interval", "wear-leveler remap cadence", "100");
  cli.add_flag("spare", "none | pcd | ps | ps-worst | freep | maxwe",
               "none");
  cli.add_flag("spare-fraction", "spare share of capacity", "0.10");
  cli.add_flag("swr-fraction", "Max-WE SWR share of spares", "0.90");
  cli.add_flag("max-writes", "stochastic: user-write cap per device "
                             "(0 = run to failure)", "0");
  cli.add_switch("no-fastpath",
                 "disable the batched fast path (stochastic mode). "
                 "Bit-identical either way for uaa/bpa populations; "
                 "distribution-equivalent for random/zipf (multiset-exact "
                 "for hotspot) — the campaign fingerprint then refuses "
                 "cross-mode --resume");
  cli.add_flag("payload", "bit mode: random|constant|fnw-adversarial|"
                          "complement", "random");
  cli.add_flag("codec", "bit mode: full|differential|fnw", "differential");
  cli.add_flag("ecp", "bit mode: ECP entries per line", "0");
  cli.add_flag("fault-stuck-at",
               "device fault: lines that die on their first write", "0");
  cli.add_flag("fault-early-death",
               "device fault: lines with a fraction of mapped endurance",
               "0");
  cli.add_flag("fault-early-death-fraction",
               "remaining endurance fraction for early-death lines", "0.01");
  cli.add_flag("fault-outlier-regions",
               "device fault: regions with scaled true endurance", "0");
  cli.add_flag("fault-outlier-factor",
               "endurance scale factor for outlier regions", "0.25");
  cli.add_flag("fault-seed", "fault-injection RNG seed", "99540903");
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

    ExperimentConfig& base = spec.base;
    const std::uint64_t lines = cli.get_uint("lines");
    if (lines > 0) {
      base.geometry = DeviceGeometry::scaled(lines, cli.get_uint("regions"));
    }
    base.endurance.endurance_at_mean = cli.get_double("endurance-mean");
    base.endurance.endurance_exponent = cli.get_double("endurance-exponent");
    base.line_jitter_sigma = cli.get_double("jitter");
    base.attack = cli.get_string("attack");
    base.mixed_phases = cli.get_string("attack-phases");
    const std::uint64_t attack_onset = cli.get_uint("attack-onset");
    if (attack_onset > 0) {
      if (!base.mixed_phases.empty()) {
        std::cerr << "error: --attack-onset and --attack-phases are two "
                     "spellings of the same schedule; pick one\n";
        return 1;
      }
      base.mixed_phases = "zipf:" + std::to_string(attack_onset) + ",uaa:0";
    }
    if (!base.mixed_phases.empty()) base.attack = "mixed";
    base.bpa_burst = cli.get_uint("bpa-burst");
    base.zipf_skew = cli.get_double("zipf-skew");
    base.hotspot_working_set = cli.get_uint("hotspot-set");
    base.detect = cli.get_bool("detect");
    base.detector.window_writes = cli.get_uint("detect-window");
    base.adaptive = cli.get_bool("adaptive");
    base.adaptive_policy.escalate_factor = cli.get_double("adaptive-factor");
    base.adaptive_policy.max_steps =
        static_cast<std::uint32_t>(cli.get_uint("adaptive-max-steps"));
    base.wear_leveler = cli.get_string("wl");
    base.wl.swap_interval = cli.get_uint("swap-interval");
    base.spare_scheme = cli.get_string("spare");
    base.spare_fraction = cli.get_double("spare-fraction");
    base.swr_fraction = cli.get_double("swr-fraction");
    base.max_user_writes = cli.get_uint("max-writes");
    base.fastpath = !cli.get_bool("no-fastpath");
    base.fault.device.stuck_at_lines = cli.get_uint("fault-stuck-at");
    base.fault.device.early_death_lines = cli.get_uint("fault-early-death");
    base.fault.device.early_death_fraction =
        cli.get_double("fault-early-death-fraction");
    base.fault.device.outlier_regions =
        cli.get_uint("fault-outlier-regions");
    base.fault.device.outlier_factor = cli.get_double("fault-outlier-factor");
    base.fault.seed = cli.get_uint("fault-seed");
    const std::string mode = cli.get_string("mode");
    if (mode == "stochastic") {
      base.mode = SimulationMode::kStochastic;
    } else if (mode == "bit") {
      base.mode = SimulationMode::kBitLevel;
      base.payload = cli.get_string("payload");
      base.codec = cli.get_string("codec");
      base.ecp_entries = static_cast<std::uint32_t>(cli.get_uint("ecp"));
    } else if (mode == "event") {
      base.mode = SimulationMode::kUniformEvent;
    } else {
      std::cerr << "error: unknown --mode '" << mode << "'\n";
      return 1;
    }

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
