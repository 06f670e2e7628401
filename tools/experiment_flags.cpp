#include "experiment_flags.h"

#include <stdexcept>

namespace nvmsec {

void add_experiment_flags(CliParser& cli, const std::string& lines_default,
                          const std::string& endurance_mean_default) {
  cli.add_flag("mode", "event (stationary-rate attacks: uaa/hotspot/"
               "random/zipf, exact, full-scale), stochastic, or bit "
               "(cell-granular with payload/codec/ECP)", "event");
  cli.add_flag("payload", "bit mode: random|constant|fnw-adversarial|"
                          "complement", "random");
  cli.add_flag("codec", "bit mode: full|differential|fnw", "differential");
  cli.add_flag("ecp", "bit mode: ECP entries per line", "0");
  cli.add_flag("lines", "device size in lines (0 = paper 1 GB geometry)",
               lines_default);
  cli.add_flag("regions", "region count (with --lines)", "128");
  cli.add_flag("endurance-mean", "endurance at mean current",
               endurance_mean_default);
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
  cli.add_flag("bpa-burst", "BPA burst length", "1024");
  cli.add_flag("zipf-skew", "zipf skew s", "0.99");
  cli.add_flag("hotspot-set", "hotspot working-set lines (>= 1)", "1");
  cli.add_switch("detect",
                 "online attack detector (stochastic mode): watch each run's "
                 "user write stream, close a verdict window every "
                 "--detect-window writes, and report alarms and detector "
                 "stats");
  cli.add_flag("detect-window",
               "detector window size in user writes", "16384");
  cli.add_switch("adaptive",
                 "self-tuning defense (needs --detect and a wear leveler): "
                 "retune the remap cadence from the alarm signal, bounded "
                 "escalation with cool-down");
  cli.add_flag("adaptive-factor",
               "cadence multiplier per escalation step (> 1)", "2.0");
  cli.add_flag("adaptive-max-steps",
               "escalation bound in steps either direction", "3");
  cli.add_flag("wl", "none|startgap|tlsr|pcms|bwl|wawl|twl", "none");
  cli.add_flag("swap-interval", "wear-leveler remap cadence", "100");
  cli.add_flag("tlsr-subregion-lines",
               "TLSR inner sub-region size in lines (scaled devices shrink "
               "it with the endurance scale)", "256");
  cli.add_flag("spare",
               "none | pcd | ps | ps-worst | freep | maxwe | maxwe-identity "
               "| maxwe-random | maxwe-random-identity (the last three are "
               "Max-WE ablations)",
               "none");
  cli.add_flag("spare-fraction", "spare share of capacity", "0.10");
  cli.add_flag("swr-fraction", "Max-WE SWR share of spares", "0.90");
  cli.add_flag("max-writes",
               "user-write cap per run, stochastic and bit modes (0 = run "
               "to failure)", "0");
  cli.add_switch("no-fastpath",
                 "disable the batched fast path (stochastic mode). "
                 "Bit-identical either way for uaa/bpa; for hotspot the "
                 "write multiset is exact, and for random/zipf the batched "
                 "run is distribution-equivalent (its own RNG substream), "
                 "not bit-identical, so a fleet journal refuses a cross-mode "
                 "--resume");
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
  cli.add_flag("fault-seed",
               "fault-injection RNG seed (its own stream; base results "
               "are unchanged by faults being off or on a new seed)",
               "99540903");
}

void apply_experiment_flags(const CliParser& cli, ExperimentConfig& config) {
  if (const std::uint64_t lines = cli.get_uint("lines"); lines > 0) {
    config.geometry = DeviceGeometry::scaled(lines, cli.get_uint("regions"));
  }
  config.endurance.endurance_at_mean = cli.get_double("endurance-mean");
  config.endurance.endurance_exponent = cli.get_double("endurance-exponent");
  config.line_jitter_sigma = cli.get_double("jitter");
  config.attack = cli.get_string("attack");
  config.mixed_phases = cli.get_string("attack-phases");
  if (const std::uint64_t onset = cli.get_uint("attack-onset"); onset > 0) {
    if (!config.mixed_phases.empty()) {
      throw std::invalid_argument(
          "--attack-onset and --attack-phases are two spellings of the same "
          "schedule; pick one");
    }
    config.mixed_phases = "zipf:" + std::to_string(onset) + ",uaa:0";
  }
  if (!config.mixed_phases.empty()) config.attack = "mixed";
  config.bpa_burst = cli.get_uint("bpa-burst");
  config.zipf_skew = cli.get_double("zipf-skew");
  config.hotspot_working_set = cli.get_uint("hotspot-set");
  config.detect = cli.get_bool("detect");
  config.detector.window_writes = cli.get_uint("detect-window");
  config.adaptive = cli.get_bool("adaptive");
  config.adaptive_policy.escalate_factor = cli.get_double("adaptive-factor");
  config.adaptive_policy.max_steps =
      static_cast<std::uint32_t>(cli.get_uint("adaptive-max-steps"));
  config.wear_leveler = cli.get_string("wl");
  config.wl.swap_interval = cli.get_uint("swap-interval");
  config.wl.tlsr_subregion_lines = cli.get_uint("tlsr-subregion-lines");
  config.spare_scheme = cli.get_string("spare");
  config.spare_fraction = cli.get_double("spare-fraction");
  config.swr_fraction = cli.get_double("swr-fraction");
  config.max_user_writes = cli.get_uint("max-writes");
  config.fastpath = !cli.get_bool("no-fastpath");
  config.fault.device.stuck_at_lines = cli.get_uint("fault-stuck-at");
  config.fault.device.early_death_lines = cli.get_uint("fault-early-death");
  config.fault.device.early_death_fraction =
      cli.get_double("fault-early-death-fraction");
  config.fault.device.outlier_regions = cli.get_uint("fault-outlier-regions");
  config.fault.device.outlier_factor = cli.get_double("fault-outlier-factor");
  config.fault.seed = cli.get_uint("fault-seed");
  const std::string mode = cli.get_string("mode");
  const std::optional<SimulationMode> parsed = parse_simulation_mode(mode);
  if (!parsed) throw std::invalid_argument("unknown --mode '" + mode + "'");
  config.mode = *parsed;
  if (config.mode == SimulationMode::kBitLevel) {
    config.payload = cli.get_string("payload");
    config.codec = cli.get_string("codec");
    config.ecp_entries = static_cast<std::uint32_t>(cli.get_uint("ecp"));
  }
}

}  // namespace nvmsec
