// High-level experiment runner: one declarative config -> one lifetime
// number. This is the API the benchmark harness, the examples, and most
// integration tests drive; it owns component construction and the
// budget-matching rules that keep PCD / PS / PS-worst / Max-WE comparisons
// fair (all schemes get the same region-aligned spare budget).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "detect/detector.h"
#include "fault/fault_plan.h"
#include "nvm/endurance_model.h"
#include "nvm/geometry.h"
#include "obs/observer.h"
#include "sim/event_sim.h"
#include "sim/lifetime.h"
#include "wearlevel/adaptive.h"
#include "wearlevel/wear_leveler.h"

namespace nvmsec {

class Device;
class EnduranceMap;
class EnduranceMapCache;
class ExperimentWorkspace;
class Rng;
class SpareScheme;

enum class SimulationMode {
  /// Per-write stochastic simulation (any attack, any wear leveler).
  kStochastic,
  /// Event-driven uniform-rate simulation (UAA only, wear-leveler-free;
  /// exact and fast enough for the paper's full-size configuration).
  kUniformEvent,
  /// Cell-granular stochastic simulation with data-dependent wear: adds a
  /// payload model, a write codec and per-line ECP (scaled devices only).
  kBitLevel,
};

struct ExperimentConfig {
  DeviceGeometry geometry{DeviceGeometry::paper_1gb()};
  EnduranceModelParams endurance{};
  /// Optional intra-region endurance jitter (lognormal sigma); 0 matches
  /// the paper's region-constant model.
  double line_jitter_sigma{0.0};
  std::uint64_t seed{42};

  /// "uaa", "bpa", "hotspot", "random", "zipf" (a benign-workload proxy
  /// rather than an attack), or "mixed" (a phase schedule, see below).
  std::string attack{"uaa"};
  std::uint64_t bpa_burst{1024};
  double zipf_skew{0.99};
  /// Hotspot only: number of lines in the hammered working set (>= 1).
  std::uint64_t hotspot_working_set{1};
  /// Mixed attack only (stochastic mode): phase schedule spec
  /// "name:writes,..." (see attack/mixed.h). Writes 0 marks a terminal
  /// unbounded phase; a bounded last phase makes the schedule cycle. Phase
  /// generators take their knobs from bpa_burst / zipf_skew /
  /// hotspot_working_set above. Must be set iff attack == "mixed".
  std::string mixed_phases;

  /// Stochastic mode only: online attack detection (detect/detector.h).
  /// The detector observes the user write stream, closes a window every
  /// detector.window_writes writes, and emits detect_window /
  /// alarm_raised / alarm_cleared events plus the detector stats in
  /// LifetimeResult.
  bool detect{false};
  DetectorParams detector{};
  /// Requires detect: wrap the wear leveler in an AdaptiveWearLeveler that
  /// retunes the remap cadence from the alarm signal (wearlevel/adaptive.h).
  bool adaptive{false};
  AdaptivePolicy adaptive_policy{};

  /// "none", "startgap", "tlsr", "pcms", "bwl", "wawl".
  std::string wear_leveler{"none"};
  WearLevelerParams wl{};

  /// "none", "pcd", "ps", "ps-worst", "freep", "maxwe".
  std::string spare_scheme{"none"};
  /// Spare budget as a fraction of total capacity, allocated in whole
  /// regions for every scheme so comparisons are budget-matched.
  double spare_fraction{0.10};
  /// Max-WE only: fraction q of the spare budget used as SWRs.
  double swr_fraction{0.90};

  /// Stochastic mode only: batched fast path (attack runs cut at the WL
  /// horizon, plus multinomial count vectors for stochastic attacks, fed
  /// to the engine's write loop as (working index, count) entries). Bit-identical to the per-write path for attacks declaring
  /// BatchContract::kBitIdentical (UAA/BPA); distribution-equivalent for
  /// zipf/random (multiset-exact for hotspot). On by default;
  /// `--no-fastpath` is the escape hatch. Deliberately excluded from
  /// config_fingerprint — like max_user_writes, it does not change which
  /// trajectory family the run belongs to, so checkpoints interchange
  /// across fastpath on/off (byte-identity of the resumed suffix is only
  /// guaranteed for bit-identical attacks or same-mode resume).
  bool fastpath{true};

  SimulationMode mode{SimulationMode::kUniformEvent};
  /// Stochastic mode only: stop after this many user writes (0 = until
  /// failure).
  WriteCount max_user_writes{0};
  /// Stochastic mode only: DRAM front-buffer capacity in lines (0 = no
  /// buffer). Requires max_user_writes > 0 — a workload that fits in the
  /// buffer never fails the device (§3.3.2).
  std::uint64_t dram_buffer_lines{0};

  /// Bit-level mode only: payload model ("random", "constant",
  /// "fnw-adversarial", "complement"), write codec ("full",
  /// "differential", "fnw"), per-line ECP entries, and within-line cell
  /// endurance sigma.
  std::string payload{"random"};
  std::string codec{"differential"};
  std::uint32_t ecp_entries{0};
  double cell_sigma{0.1};

  /// Fault injection (see fault/fault_plan.h). Device faults perturb a
  /// copy of the endurance map that only the device sees (any mode);
  /// metadata faults require spare_scheme == "maxwe" and stochastic mode.
  FaultPlan fault{};

  /// Stochastic mode only: write a checkpoint to `checkpoint_out` every
  /// `checkpoint_interval` user writes (both must be set together).
  std::string checkpoint_out;
  WriteCount checkpoint_interval{0};
  /// Stochastic mode only: resume from this checkpoint file before running
  /// (empty = fresh start). The checkpoint's config fingerprint must match
  /// this config; a resumed run is bit-identical to an uninterrupted one.
  std::string resume_from;

  /// Observability sinks (borrowed; see obs/session.h for an owning
  /// composition). Default — all null — is the zero-overhead no-op mode.
  /// Event and stochastic engines are fully instrumented; the bit-level
  /// engine records decision events and run-level metrics but no traces
  /// or snapshots (its per-cell hot path stays untouched).
  Observer observer{};

  /// Region-aligned spare budget in lines: round(spare_fraction * R) * L/R.
  [[nodiscard]] std::uint64_t spare_lines() const;
};

/// Run one experiment end to end. Throws std::invalid_argument for
/// inconsistent configs (e.g. event mode with a non-uniform attack) and
/// std::runtime_error (carrying a Status string) when a resume checkpoint
/// is missing, corrupt, or from a different configuration.
///
/// The spare scheme, device and event-engine scratch come from `workspace`
/// (a local one when nullptr), and so does the endurance map unless
/// `cache` is given (see sim/endurance_cache.h). Neither changes the
/// result by a bit: the cache replays the post-map RNG state, so every
/// later draw (spare-scheme placement, attack, engine) is unchanged, and a
/// workspace only recycles storage.
LifetimeResult run_experiment(const ExperimentConfig& config,
                              EnduranceMapCache* cache = nullptr,
                              ExperimentWorkspace* workspace = nullptr);

/// Stable 64-bit fingerprint of every field that shapes the simulation
/// trajectory (geometry, endurance model, seed, attack, leveler, scheme,
/// fault plan, ...). Embedded in checkpoints so resume can refuse a file
/// written by a different configuration. Deliberately excludes
/// max_user_writes: a capped checkpointing run and the uncapped run it
/// stands in for share a trajectory, so they must share a fingerprint.
[[nodiscard]] std::uint64_t config_fingerprint(const ExperimentConfig& config);

/// The spare scheme run_experiment builds for `config` over `endurance`,
/// drawing from `rng` as it does. Throws std::invalid_argument on an
/// unknown scheme name or a zero spare budget. Public so a run over an
/// endurance map loaded from a file builds the same scheme.
std::unique_ptr<SpareScheme> build_spare_scheme(
    const ExperimentConfig& config,
    const std::shared_ptr<const EnduranceMap>& endurance, Rng& rng);

/// Where run_experiment gets its heavy objects: the endurance map (rebuilt
/// in place with identical RNG draws), the spare scheme (rebound via
/// SpareScheme::rebind when the scheme supports it), the Device wear state
/// and the event engine's scratch. An empty workspace constructs each one;
/// a workspace kept across back-to-back runs (one per fleet worker thread)
/// recycles whatever the next run's shape allows.
///
/// Strictly an allocation strategy: a run is bit-identical whichever
/// workspace it gets, and a workspace may be handed configs of different
/// shapes — anything that cannot be recycled is rebuilt. Not thread-safe;
/// one workspace per thread.
class ExperimentWorkspace {
 public:
  ExperimentWorkspace();
  ~ExperimentWorkspace();
  ExperimentWorkspace(const ExperimentWorkspace&) = delete;
  ExperimentWorkspace& operator=(const ExperimentWorkspace&) = delete;

 private:
  friend LifetimeResult run_experiment(const ExperimentConfig& config,
                                       EnduranceMapCache* cache,
                                       ExperimentWorkspace* workspace);

  /// Slot acquisition used by run_experiment. Each returns an object
  /// indistinguishable from fresh construction, reusing the slot's storage
  /// when the previous run left it in a compatible, exclusively-held state
  /// and constructing it otherwise.
  std::shared_ptr<const EnduranceMap> acquire_map(const ExperimentConfig& config,
                                                  Rng& rng);
  SpareScheme* acquire_spare(const ExperimentConfig& config,
                             const std::shared_ptr<const EnduranceMap>& map,
                             Rng& rng);
  Device* acquire_device(std::shared_ptr<const EnduranceMap> device_map);

  EventScratch event_scratch_;
  /// Owned endurance-map slot, rebuilt in place between runs when the
  /// geometry matches and no one else retained a reference.
  std::shared_ptr<EnduranceMap> map_;
  /// Spare-scheme slot plus the construction key it was built with.
  std::unique_ptr<SpareScheme> spare_;
  std::string spare_name_;
  double spare_fraction_{-1.0};
  double swr_fraction_{-1.0};
  bool spare_on_map_{false};   ///< spare_ holds a reference to map_
  /// Device slot (stochastic mode), rebound to each run's map.
  std::unique_ptr<Device> device_;
  bool device_on_map_{false};  ///< device_ holds a reference to map_
};

/// Paper §5.1's scaled-down stochastic configuration used by the BPA
/// benches and integration tests: `num_lines` lines, `num_regions` regions,
/// endurance scaled so runs finish in seconds while preserving the
/// distribution shape (normalized lifetime is scale-free).
ExperimentConfig scaled_stochastic_config(std::uint64_t num_lines,
                                          std::uint64_t num_regions,
                                          double endurance_at_mean);

}  // namespace nvmsec
