// Traced pipeline: one device booted through the library's public
// constructors, with its attack, wear leveler and spare scheme wrapped in
// forwarding decorators that count every call and time a fixed sample.
//
// The decorators live here, outside the library, so the library under test
// is the one users link. A steady_clock read costs about as much as a
// translate() or a resolve(), so the hot per-write methods are timed on a
// fixed 1-in-61 basis and their totals are estimated as
// (sampled mean) x (calls); rarer, heavier calls are timed every time.
//
// Fidelity contract: run_traced(config) returns a LifetimeResult equal to
// run_experiment(config)'s bit for bit for every config boot_device()
// accepts. The decorators add calls, never change what is forwarded, and
// TracedSpareScheme mirrors the wrapped scheme's mapping epoch (which is
// not virtual) so the engine's resolve cache flushes exactly when it would
// without the decorator.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "attack/attack.h"
#include "nvm/endurance_map.h"
#include "sim/experiment.h"
#include "sim/lifetime.h"
#include "spare/spare_scheme.h"
#include "wearlevel/wear_leveler.h"

namespace perfbench {

/// One decorated method: every call counted, sampled calls timed.
struct CallStats {
  std::uint64_t calls{0};
  std::uint64_t sampled{0};
  std::uint64_t sampled_ns{0};

  /// Estimated seconds across all calls: the sampled mean, less the cost
  /// of an empty sampled span, times the call count.
  [[nodiscard]] double est_seconds() const;
};

/// Per-layer counters and spans for one or more traced devices.
struct LayerStats {
  // attack (+ util/multinomial behind next_counts)
  CallStats attack_next;
  CallStats attack_run;
  CallStats attack_counts;
  std::uint64_t attack_writes{0};  ///< writes emitted by all draw calls
  std::uint64_t attack_contract_calls{0};
  double attack_boot_s{0};  ///< attack constructors / event rate vectors

  // wearlevel
  CallStats wl_on_write;
  CallStats wl_translate;
  std::uint64_t wl_until_remap_calls{0};
  std::uint64_t wl_commit_calls{0};
  std::uint64_t wl_batched_writes{0};  ///< passed via commit_batched_writes
  std::uint64_t wl_epoch_calls{0};
  std::uint64_t wl_remaps{0};  ///< leveler mapping-epoch advances
  std::uint64_t wl_migration_writes{0};
  double wl_boot_s{0};

  // spare + core
  CallStats spare_resolve;
  CallStats spare_rescue;
  std::uint64_t spare_cacheable_calls{0};
  std::uint64_t spare_epoch_bumps{0};  ///< mirrored mapping-epoch changes
  double spare_boot_s{0};

  // nvm
  double map_boot_s{0};
  std::uint64_t device_writes{0};
  std::uint64_t wear_outs{0};

  // sim/engine and sim/event_sim: wall time inside Engine::run and
  // UniformEventSimulator::run (decorated calls included).
  double engine_run_s{0};
  double event_run_s{0};
  std::uint64_t event_line_deaths{0};

  double user_writes{0};

  /// Engine::run time not spent in sampled attack/wearlevel/spare calls.
  [[nodiscard]] double engine_self_s() const;
  /// UniformEventSimulator::run time not spent in sampled spare calls.
  [[nodiscard]] double event_self_s() const;
};

/// A device's components, built the way run_experiment builds them (same
/// constructors, same RNG draw order) and ready to run.
struct BootedDevice {
  nvmsec::Rng rng{0};
  std::shared_ptr<const nvmsec::EnduranceMap> map;
  std::unique_ptr<nvmsec::SpareScheme> spare;
  /// Stochastic mode.
  std::unique_ptr<nvmsec::Attack> attack;
  std::unique_ptr<nvmsec::WearLeveler> wl;
  /// Event mode: per-index write rates (empty = uniform).
  std::vector<double> event_rates;
};

/// Boot `config`'s device through EnduranceMap::from_model, the spare-scheme
/// factories, make_wear_leveler and the attack constructors, charging each
/// step to `stats`. Supports the configs the benchmark's workloads use:
/// event or stochastic mode, no jitter, faults, detector, DRAM buffer,
/// checkpoints, mixed phases or observer; throws std::invalid_argument on
/// anything else.
BootedDevice boot_device(const nvmsec::ExperimentConfig& config,
                         LayerStats& stats);

/// Boot and run one device with decorated components.
nvmsec::LifetimeResult run_traced(const nvmsec::ExperimentConfig& config,
                                  LayerStats& stats);

/// Bitwise equality of every LifetimeResult field.
bool same_result(const nvmsec::LifetimeResult& a,
                 const nvmsec::LifetimeResult& b);

/// 64-bit digest of every LifetimeResult field (bitwise for doubles).
std::uint64_t result_digest(const nvmsec::LifetimeResult& r);

/// FNV-1a over a byte string.
std::uint64_t fnv1a(std::string_view bytes);

}  // namespace perfbench
