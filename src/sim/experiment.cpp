#include "sim/experiment.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "attack/attack.h"
#include "attack/mixed.h"
#include "attack/zipf.h"
#include "cache/dram_buffer.h"
#include "core/maxwe.h"
#include "fault/device_faults.h"
#include "fault/metadata_faults.h"
#include "obs/event_log.h"
#include "obs/profiler.h"
#include "spare/freep.h"
#include "nvm/device.h"
#include "sim/bit_engine.h"
#include "sim/endurance_cache.h"
#include "sim/engine.h"
#include "sim/event_sim.h"
#include "sim/journal.h"
#include "spare/spare_scheme.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace nvmsec {

std::uint64_t ExperimentConfig::spare_lines() const {
  const auto spare_regions = static_cast<std::uint64_t>(std::llround(
      spare_fraction * static_cast<double>(geometry.num_regions())));
  return spare_regions * geometry.lines_per_region();
}

std::unique_ptr<SpareScheme> build_spare_scheme(
    const ExperimentConfig& config,
    const std::shared_ptr<const EnduranceMap>& endurance, Rng& rng) {
  const std::string& name = config.spare_scheme;
  if (name == "none") return make_no_spare(endurance);
  const std::uint64_t spare_lines = config.spare_lines();
  if (spare_lines == 0) {
    throw std::invalid_argument(
        "run_experiment: spare scheme '" + name +
        "' needs a non-zero spare budget (spare_fraction too small?)");
  }
  if (name == "pcd") return make_pcd(endurance, spare_lines, rng);
  if (name == "ps") return make_ps(endurance, spare_lines, rng);
  if (name == "ps-worst") return make_ps_worst(endurance, spare_lines, rng);
  if (name == "freep") return make_freep(endurance, spare_lines);
  if (name == "maxwe") {
    MaxWeParams params;
    params.spare_fraction = config.spare_fraction;
    params.swr_fraction = config.swr_fraction;
    return make_maxwe(endurance, params);
  }
  throw std::invalid_argument("run_experiment: unknown spare scheme '" + name +
                              "'");
}

namespace {

/// Fault injection and checkpointing only make sense where there is a
/// run-time trajectory to perturb or to save; reject the combinations that
/// would silently do nothing instead.
void validate_robustness_config(const ExperimentConfig& config) {
  if (config.checkpoint_out.empty() != (config.checkpoint_interval == 0)) {
    throw std::invalid_argument(
        "run_experiment: checkpoint_out and checkpoint_interval must be set "
        "together");
  }
  if ((!config.checkpoint_out.empty() || !config.resume_from.empty()) &&
      config.mode != SimulationMode::kStochastic) {
    throw std::invalid_argument(
        "run_experiment: checkpoint/resume captures per-write engine state; "
        "use stochastic mode");
  }
  if (config.fault.metadata.any()) {
    if (config.spare_scheme != "maxwe") {
      throw std::invalid_argument(
          "run_experiment: metadata faults target Max-WE's mapping tables; "
          "set spare_scheme=maxwe (got '" + config.spare_scheme + "')");
    }
    if (config.mode != SimulationMode::kStochastic) {
      throw std::invalid_argument(
          "run_experiment: metadata faults are injected at user-write "
          "boundaries; use stochastic mode");
    }
  }
  if ((config.attack == "mixed") != !config.mixed_phases.empty()) {
    throw std::invalid_argument(
        "run_experiment: mixed_phases must be set exactly when attack == "
        "'mixed'");
  }
  if (config.detect && config.mode != SimulationMode::kStochastic) {
    throw std::invalid_argument(
        "run_experiment: attack detection observes the per-write request "
        "stream; use stochastic mode");
  }
  if (config.adaptive) {
    if (!config.detect) {
      throw std::invalid_argument(
          "run_experiment: adaptive cadence control is driven by the "
          "detector's alarm signal; set detect too");
    }
    if (config.wear_leveler == "none") {
      throw std::invalid_argument(
          "run_experiment: adaptive cadence control needs a wear leveler "
          "with a tunable remap cadence (wear_leveler is 'none')");
    }
  }
}

}  // namespace

std::uint64_t config_fingerprint(const ExperimentConfig& config) {
  StateWriter w;
  w.u64(config.geometry.num_lines());
  w.u64(config.geometry.num_regions());
  w.f64(config.endurance.current_mean_ma);
  w.f64(config.endurance.current_stddev_ma);
  w.f64(config.endurance.truncate_sigma);
  w.f64(config.endurance.endurance_exponent);
  w.f64(config.endurance.endurance_at_mean);
  w.f64(config.line_jitter_sigma);
  w.u64(config.seed);
  w.str(config.attack);
  w.u64(config.bpa_burst);
  w.f64(config.zipf_skew);
  w.u64(config.hotspot_working_set);
  w.str(config.wear_leveler);
  w.u64(config.wl.swap_interval);
  // These three and the five detector thresholds below were config fields;
  // hashing the constants where the fields were keeps the fingerprints of
  // existing checkpoints and journals.
  w.u32(kBwlClasses);
  w.f64(kBwlBeta);
  w.f64(kWawlAlpha);
  w.u64(config.wl.group_lines);
  w.u64(config.wl.tlsr_subregion_lines);
  w.str(config.spare_scheme);
  w.f64(config.spare_fraction);
  w.f64(config.swr_fraction);
  w.u8(static_cast<std::uint8_t>(config.mode));
  w.u64(config.dram_buffer_lines);
  w.str(config.payload);
  w.str(config.codec);
  w.u32(config.ecp_entries);
  w.f64(config.cell_sigma);
  w.u64(config.fault.device.stuck_at_lines);
  w.u64(config.fault.device.early_death_lines);
  w.f64(config.fault.device.early_death_fraction);
  w.u64(config.fault.device.outlier_regions);
  w.f64(config.fault.device.outlier_factor);
  w.u64(config.fault.metadata.flip_interval);
  w.u64(config.fault.seed);
  w.str(config.mixed_phases);
  w.boolean(config.detect);
  w.u64(config.detector.window_writes);
  w.u32(config.detector.coarse_buckets);
  w.u32(config.detector.fine_buckets);
  w.f64(kSweepUniformityMax);
  w.f64(kSweepSequentialMin);
  w.f64(kConcentrationOccupancyMax);
  w.u32(kRaiseWindows);
  w.u32(kClearWindows);
  w.boolean(config.adaptive);
  w.f64(config.adaptive_policy.escalate_factor);
  w.u32(config.adaptive_policy.max_steps);
  w.u32(config.adaptive_policy.hold_windows);
  w.u32(config.adaptive_policy.relax_windows);
  // FNV-1a over the canonical little-endian encoding above.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : w.buffer()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ExperimentWorkspace::ExperimentWorkspace() = default;
ExperimentWorkspace::~ExperimentWorkspace() = default;

namespace {

const char* mode_name(SimulationMode mode) {
  switch (mode) {
    case SimulationMode::kStochastic: return "stochastic";
    case SimulationMode::kUniformEvent: return "event";
    case SimulationMode::kBitLevel: return "bit";
  }
  return "unknown";
}

}  // namespace

std::shared_ptr<const EnduranceMap> ExperimentWorkspace::acquire_map(
    const ExperimentConfig& config, Rng& rng) {
  const EnduranceModel model(config.endurance);
  const DeviceGeometry& g = config.geometry;
  // The slot is reusable only when the geometry matches and nothing else
  // still holds a reference: map_ itself plus (bookkept) the spare scheme
  // and device slots. Any other use_count means a previous run's objects
  // escaped — fall back to a fresh allocation rather than mutate shared
  // state under someone's feet.
  const long expected_refs =
      1 + (spare_on_map_ ? 1 : 0) + (device_on_map_ ? 1 : 0);
  const bool reusable = map_ != nullptr &&
                        map_->geometry().num_lines() == g.num_lines() &&
                        map_->geometry().num_regions() == g.num_regions() &&
                        map_->geometry().line_bytes() == g.line_bytes() &&
                        map_.use_count() == expected_refs;
  if (reusable) {
    // In-place rebuild consumes exactly the draws from_model would, so the
    // RNG stream — and everything sampled after it — is unchanged. The
    // spare/device slots still referencing the map are rebound below
    // before anything reads through them.
    map_->rebuild_from_model(model, rng);
  } else {
    map_ = std::make_shared<EnduranceMap>(
        EnduranceMap::from_model(g, model, rng));
    spare_on_map_ = false;
    device_on_map_ = false;
  }
  if (config.line_jitter_sigma > 0) {
    map_->apply_line_jitter(config.line_jitter_sigma, rng);
  }
  return map_;
}

SpareScheme* ExperimentWorkspace::acquire_spare(
    const ExperimentConfig& config,
    const std::shared_ptr<const EnduranceMap>& map, Rng& rng) {
  // Reuse requires the same construction key AND a scheme that supports
  // rebinding. A failed rebind has not touched the RNG stream, so falling
  // through to fresh construction stays bit-identical.
  const bool key_match = spare_ != nullptr &&
                         spare_name_ == config.spare_scheme &&
                         spare_fraction_ == config.spare_fraction &&
                         swr_fraction_ == config.swr_fraction;
  if (!key_match || !spare_->rebind(map, rng)) {
    spare_ = build_spare_scheme(config, map, rng);
    spare_name_ = config.spare_scheme;
    spare_fraction_ = config.spare_fraction;
    swr_fraction_ = config.swr_fraction;
  }
  spare_on_map_ = map.get() == map_.get();
  return spare_.get();
}

Device* ExperimentWorkspace::acquire_device(
    std::shared_ptr<const EnduranceMap> device_map) {
  device_on_map_ = device_map.get() == map_.get();
  if (device_ == nullptr) {
    device_ = std::make_unique<Device>(std::move(device_map));
  } else {
    device_->rebind(std::move(device_map));
  }
  return device_.get();
}

LifetimeResult run_experiment(const ExperimentConfig& config,
                              EnduranceMapCache* cache,
                              ExperimentWorkspace* workspace) {
  validate_robustness_config(config);
  if (config.observer.events != nullptr) {
    // First event of every run; a resumed run re-emits it, but the engine
    // rewinds the log to the checkpoint offset before continuing, so the
    // file never holds two. Written before the spare scheme exists so the
    // boot-time allocation events that follow have their config context.
    config.observer.events->set_now(0.0);
    config.observer.events->emit(
        "run_start",
        {{"mode", mode_name(config.mode)},
         {"attack", config.attack},
         {"wear_leveler", config.wear_leveler},
         {"spare", config.spare_scheme},
         {"seed", static_cast<double>(config.seed)},
         {"lines", static_cast<double>(config.geometry.num_lines())},
         {"regions", static_cast<double>(config.geometry.num_regions())},
         {"spare_fraction", config.spare_fraction},
         {"swr_fraction", config.swr_fraction},
         {"detect", config.detect ? 1.0 : 0.0},
         {"adaptive", config.adaptive ? 1.0 : 0.0}});
    if (!config.mixed_phases.empty()) {
      // Ground truth for post-mortem detector scoring: the report derives
      // each attack phase's onset write count from this schedule and the
      // detect_window events' "t" stamps.
      config.observer.events->emit("attack_phases",
                                   {{"schedule", config.mixed_phases}});
    }
  }
  Rng rng(config.seed);

  // Everything between here and the engine's run() is "setup": map build
  // (or cache hit), scheme/attack/leveler construction. The span is closed
  // before run() so setup and run never overlap in the profile.
  Profiler* const prof = config.observer.profiler;
  std::optional<ScopedProfPhase> setup_span;
  setup_span.emplace(prof, ProfPhase::kExperimentSetup);

  // The map (unless cached), spare scheme, device and event scratch come
  // from the caller's workspace, or from a local one built for this run.
  ExperimentWorkspace local_workspace;
  ExperimentWorkspace& ws = workspace != nullptr ? *workspace : local_workspace;
  std::shared_ptr<const EnduranceMap> map;
  if (cache != nullptr) {
    EnduranceMapCache::BuiltMap built =
        cache->get_or_build(config.geometry, config.endurance, config.seed,
                            config.line_jitter_sigma);
    map = std::move(built.map);
    // Continue the seed's stream from where map construction left it; this
    // is what keeps cached and cold runs bit-identical (the spare schemes
    // draw from the same rng next).
    rng = built.rng_after_build;
    if (prof != nullptr) {
      prof->add(built.hit ? ProfCounter::kEnduranceCacheHit
                          : ProfCounter::kEnduranceCacheMiss);
    }
  } else {
    map = ws.acquire_map(config, rng);
  }
  SpareScheme* const spare = ws.acquire_spare(config, map, rng);

  // Device faults live in a copy of the map: the spare scheme and wear
  // leveler above planned on the clean manufacture-time characterization,
  // while the device wears out on the faulted reality — which is exactly
  // the divergence the fault model exists to exercise.
  std::shared_ptr<const EnduranceMap> device_map = map;
  if (config.fault.device.any()) {
    auto faulted = std::make_shared<EnduranceMap>(*map);
    const DeviceFaultReport injected =
        apply_device_faults(*faulted, config.fault.device, config.fault.seed);
    device_map = std::move(faulted);
    if (config.observer.events != nullptr) {
      config.observer.events->emit(
          "device_faults",
          {{"stuck_at_lines", static_cast<double>(injected.stuck_at_lines)},
           {"early_death_lines",
            static_cast<double>(injected.early_death_lines)},
           {"outlier_regions",
            static_cast<double>(injected.outlier_regions)}});
    }
  }

  if (config.mode == SimulationMode::kUniformEvent) {
    if (config.wear_leveler != "none") {
      throw std::invalid_argument(
          "run_experiment: the event-driven engine is wear-leveler-free "
          "(bijective remapping does not change stationary-rate wear); use "
          "stochastic mode to include wear-leveler overhead");
    }
    UniformEventSimulator sim(device_map, *spare);
    sim.set_scratch(&ws.event_scratch_);
    // The event engine bulk-advances any *stationary* per-index write-rate
    // vector (the mean-field limit of the stochastic sampling): uniform for
    // uaa/random, a hot working set for hotspot, the scattered skew for
    // zipf. BPA's burst pattern is non-stationary, so it stays stochastic.
    const std::uint64_t u = spare->working_lines();
    if (config.attack == "uaa" || config.attack == "random") {
      // Uniform rates: the default, no weight vector needed.
    } else if (config.attack == "hotspot") {
      if (config.hotspot_working_set == 0) {
        throw std::invalid_argument(
            "run_experiment: hotspot_working_set must be >= 1");
      }
      std::vector<double> weights(u, 0.0);
      const std::uint64_t set = std::min(config.hotspot_working_set, u);
      for (std::uint64_t i = 0; i < set; ++i) weights[i] = 1.0;
      sim.set_index_rates(std::move(weights));
    } else if (config.attack == "zipf") {
      sim.set_index_rates(
          zipf_address_rates(config.zipf_skew, u, config.seed));
    } else {
      throw std::invalid_argument(
          "run_experiment: the event-driven engine bulk-advances stationary "
          "write-rate phases; attack '" + config.attack +
          "' is non-stationary — use stochastic mode");
    }
    sim.set_observer(config.observer);
    setup_span.reset();
    return sim.run();
  }

  const auto build_one_attack =
      [&config](const std::string& name,
                std::uint64_t working_lines) -> std::unique_ptr<Attack> {
    if (name == "bpa") return make_bpa(config.bpa_burst);
    if (name == "zipf") {
      return make_zipf(config.zipf_skew, working_lines, config.seed);
    }
    if (name == "hotspot") {
      if (config.hotspot_working_set == 0) {
        throw std::invalid_argument(
            "run_experiment: hotspot_working_set must be >= 1");
      }
      return make_hotspot(config.hotspot_working_set);
    }
    return make_attack(name);
  };
  std::unique_ptr<Attack> attack;
  if (config.attack == "mixed") {
    std::vector<MixedAttack::Phase> phases;
    for (const MixedPhaseSpec& s : parse_mixed_phases(config.mixed_phases)) {
      if (s.attack == "mixed") {
        throw std::invalid_argument(
            "run_experiment: mixed phases cannot nest another mixed attack");
      }
      phases.push_back(
          {build_one_attack(s.attack, spare->working_lines()), s.writes});
    }
    attack = std::make_unique<MixedAttack>(std::move(phases));
  } else {
    attack = build_one_attack(config.attack, spare->working_lines());
  }

  EnduranceView view(spare->working_lines());
  for (std::uint64_t i = 0; i < view.size(); ++i) {
    view[i] = map->line_endurance(spare->working_line(i));
  }
  WearLevelerParams wl_params = config.wl;
  if (wl_params.group_lines == 0 &&
      spare->working_lines() % config.geometry.lines_per_region() == 0) {
    // Align the endurance-aware levelers' groups with the device's regions
    // (possible whenever the spare scheme reserves whole regions, as Max-WE
    // does): a group then has one endurance, not a weak/strong mixture.
    wl_params.group_lines = config.geometry.lines_per_region();
  }
  std::unique_ptr<WearLeveler> wl =
      make_wear_leveler(config.wear_leveler, spare->working_lines(), view,
                        wl_params, rng);
  // The adaptive controller is a decorator: the engine sees one wear
  // leveler whose save/load carries both the controller and the wrapped
  // scheme, and the raw pointer below is how the detector's window closes
  // reach the escalation policy.
  AdaptiveWearLeveler* adaptive = nullptr;
  if (config.adaptive) {
    auto wrapped = std::make_unique<AdaptiveWearLeveler>(
        std::move(wl), config.adaptive_policy);
    adaptive = wrapped.get();
    wl = std::move(wrapped);
  }

  if (config.mode == SimulationMode::kBitLevel) {
    if (config.dram_buffer_lines > 0) {
      throw std::invalid_argument(
          "run_experiment: the bit-level engine does not support the DRAM "
          "buffer yet; use stochastic mode");
    }
    BitDeviceParams dp;
    dp.cell_sigma = config.cell_sigma;
    dp.ecp_entries = config.ecp_entries;
    BitDevice device(device_map, dp, rng);
    auto payload = make_payload(config.payload);
    auto codec = make_codec(config.codec);
    BitEngine engine(device, *attack, *payload, *codec, *wl, *spare, rng);
    engine.set_observer(config.observer);
    setup_span.reset();
    return engine.run(config.max_user_writes);
  }

  Engine engine(*ws.acquire_device(device_map), *attack, *wl, *spare, rng);
  engine.set_fast_path(config.fastpath);
  engine.set_observer(config.observer);
  std::unique_ptr<DramBuffer> buffer;
  if (config.dram_buffer_lines > 0) {
    buffer = std::make_unique<DramBuffer>(config.dram_buffer_lines);
    engine.set_front_buffer(buffer.get());
  }

  std::unique_ptr<MetadataFaultInjector> injector;
  if (config.fault.metadata.any()) {
    // validate_robustness_config() already pinned the scheme to "maxwe".
    auto* maxwe = dynamic_cast<MaxWe*>(spare);
    injector = std::make_unique<MetadataFaultInjector>(config.fault.metadata,
                                                       config.fault.seed);
    engine.set_fault_injection(injector.get(), maxwe);
  }
  std::unique_ptr<AttackDetector> detector;
  if (config.detect) {
    detector =
        std::make_unique<AttackDetector>(config.detector, wl->logical_lines());
    engine.set_detector(detector.get(), adaptive);
  }
  if (!config.checkpoint_out.empty()) {
    engine.set_checkpointing(config.checkpoint_out, config.checkpoint_interval,
                             config_fingerprint(config));
  }
  if (!config.resume_from.empty()) {
    const std::vector<std::uint8_t> state =
        Journal::read_snapshot(config.resume_from, config_fingerprint(config),
                               "configuration")
            .take();
    StateReader r(state);
    engine.restore_state(r).throw_if_error();
  }
  setup_span.reset();
  return engine.run(config.max_user_writes);
}

ExperimentConfig scaled_stochastic_config(std::uint64_t num_lines,
                                          std::uint64_t num_regions,
                                          double endurance_at_mean) {
  ExperimentConfig config;
  config.geometry = DeviceGeometry::scaled(num_lines, num_regions);
  config.endurance.endurance_at_mean = endurance_at_mean;
  config.mode = SimulationMode::kStochastic;
  // Scale the remap cadences with the endurance scale: at full scale the
  // worst-case wear a line absorbs between remaps (interval, or
  // subregion_lines * interval for TLSR) is a vanishing fraction of any
  // line's endurance, and the scheme comparison only holds if that stays
  // true after scaling (otherwise wear-outs stop being endurance-ordered).
  config.wl.swap_interval = 20;
  config.wl.tlsr_subregion_lines = 32;
  config.bpa_burst = 200;
  return config;
}

}  // namespace nvmsec
