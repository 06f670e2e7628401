// Sharded fleet runner: population-scale lifetime campaigns in O(shards)
// memory.
//
// The paper's endurance claim is a population claim — "survives N writes
// under attack" only matters across millions of devices with endurance
// variation and faults. run_fleet() fans a device-population spec across
// `jobs` threads and streams every per-device LifetimeResult (plus the
// failure cause it encodes) into per-shard sketches; no per-device result
// is ever retained.
//
// Sharding and determinism contract:
//   - Device i always runs with seed `seed_start + i` and an attack chosen
//     by a stateless hash of (seed_start, i) against the attack mix, so a
//     device's trajectory depends only on the spec, never on scheduling.
//   - Devices are grouped into fixed shards of `shard_size`; each shard
//     folds its devices (in device order) into one FleetAggregate.
//   - Completed shards fold into the result in shard-index order as soon
//     as every earlier shard has folded, and are released, so the fleet
//     result is bit-identical at every --jobs level and memory follows
//     the shards in flight, not the campaign.
//   - Each completed shard's aggregate is canonicalized (compressed) and
//     serialized into its journal record, journal or not, and folds in
//     that record's form. With a journal, the record is appended to a
//     MXWEJRNL shard journal (sim/journal.h); a SIGKILLed campaign
//     resumes by replaying the journal, re-running only the missing
//     shards, and produces a byte-identical fleet result.
//
// The live heartbeat (obs/heartbeat.h) is the one deliberately
// non-deterministic output: it reports progress in completion order and
// wall-clock rates, and attaching it cannot change the fleet result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "attack/attack.h"
#include "sim/experiment.h"
#include "util/sketch.h"

namespace nvmsec {

class HeartbeatSink;
class Profiler;
class StateWriter;
class StateReader;

/// Failure-cause taxonomy used by the fleet aggregates: the `cause` values
/// of the engines' end_of_life events, plus the two fallbacks.
inline constexpr std::string_view kCauseUnreplaceableWearOut =
    "unreplaceable_wear_out";
inline constexpr std::string_view kCauseAllBackedLinesWorn =
    "all_backed_lines_worn";
inline constexpr std::string_view kCauseWriteCapReached = "write_cap_reached";
inline constexpr std::string_view kCauseUnknown = "unknown";

/// Classify a device's end-of-life cause from its event log (JSONL text).
/// Prefers the end_of_life event's `cause` field; when the log was
/// truncated at the event cap (log_truncated marker) or carries no
/// end_of_life event, falls back to classifying `result.failure_reason` so
/// a truncated log degrades gracefully instead of misclassifying the run.
/// Sets `*log_truncated` (when non-null) iff the marker was present.
/// Every engine emits its end_of_life event with the cause that
/// `result.failure_reason` maps to, so an empty log classifies a result
/// the same way its full log would; fleet devices run without a log and
/// are classified that way.
std::string classify_failure_cause(std::string_view event_jsonl,
                                   const LifetimeResult& result,
                                   bool* log_truncated = nullptr);

/// Exact extreme-k tracker: the k lowest (or highest) values with their
/// device ids. Mergeable and order-independent (ties break on device id),
/// unlike a reservoir — the fleet report's "worst device, with its seed,
/// for exact replay" must be the true extreme, not a sample.
class ExemplarSet {
 public:
  struct Exemplar {
    double value{0};
    std::uint64_t id{0};
  };

  explicit ExemplarSet(std::size_t capacity = 8, bool keep_lowest = true);

  void add(std::uint64_t id, double value);
  /// Throws std::invalid_argument on capacity/direction mismatch.
  void merge(const ExemplarSet& other);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool keep_lowest() const { return keep_lowest_; }
  /// Best-first (most extreme first), deterministic order.
  [[nodiscard]] const std::vector<Exemplar>& items() const { return items_; }

  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

 private:
  [[nodiscard]] bool before(const Exemplar& a, const Exemplar& b) const;

  std::size_t capacity_;
  bool keep_lowest_;
  std::vector<Exemplar> items_;
};

/// Streaming population aggregate: everything the fleet report renders,
/// in constant memory per shard. Mergeable (fixed order => bit-identical)
/// and serializable, so it is both the per-shard unit of work and the
/// per-shard unit of checkpointing.
struct FleetAggregate {
  StreamSummary lifetime;        ///< normalized lifetime
  StreamSummary user_writes;     ///< raw user writes before failure
  StreamSummary wear_gini;       ///< per-device wear-balance Gini
  /// Per-device attack-detector stats (populated when base.detect is on;
  /// all-zero summaries otherwise).
  StreamSummary alarms_raised;     ///< alarm raise transitions per device
  StreamSummary windows_in_alarm;  ///< windows at under-attack per device
  StreamSummary cadence_changes;   ///< adaptive cadence retunes per device
  /// Devices that raised at least one alarm.
  std::uint64_t devices_alarmed{0};
  StreamingHistogram lifetime_hist{1e-6, 2.0, 64};
  /// end_of_life cause -> device count; std::map for deterministic order.
  std::map<std::string, std::uint64_t> failure_causes;
  /// True extremes by normalized lifetime, with seeds derivable from ids.
  ExemplarSet worst{8, /*keep_lowest=*/true};
  ExemplarSet best{8, /*keep_lowest=*/false};
  /// Unbiased random exemplars (hash-priority reservoir): a replayable
  /// representative subsample of the population.
  WeightedReservoir sample{64};
  std::uint64_t devices{0};
  /// Devices whose event log hit the cap. Fleet devices run without an
  /// event log, so run_fleet always leaves this 0; it stays in the journal
  /// record, the result JSON and the heartbeat until their next schema
  /// version.
  std::uint64_t truncated_logs{0};

  /// Fold one device's result in. `cause` from classify_failure_cause().
  void add(std::uint64_t device_id, const LifetimeResult& result,
           const std::string& cause, bool log_truncated);
  void merge(const FleetAggregate& other);
  /// Canonicalize the sketches (stable serialized form).
  void compress();

  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);
};

/// One component of the population's attack mix.
struct AttackShare {
  std::string attack;
  double weight{1.0};
};

/// Device-population spec: what to simulate, not how to schedule it.
/// Everything that shapes any device's trajectory lives here (and is
/// covered by fleet_fingerprint); scheduling knobs live in FleetOptions.
struct FleetSpec {
  /// Population size.
  std::uint64_t devices{0};
  /// Device i runs with seed `seed_start + i`.
  std::uint64_t seed_start{1};
  /// Devices per shard (aggregation and checkpoint granularity). The
  /// default keeps shard startup noise negligible while a 100k-device
  /// campaign still checkpoints every few seconds.
  std::uint64_t shard_size{256};
  /// Template config: geometry, endurance distribution, fault plan, wear
  /// leveler, spare scheme, mode. Per-device seed (and attack, when a mix
  /// is given) are overridden; observer sinks and engine checkpoints are
  /// ignored — fleet devices run with none.
  ExperimentConfig base;
  /// Weighted attack mix; empty = every device runs base.attack. Device
  /// i's attack is picked by a stateless hash of (seed_start, i), so the
  /// assignment is independent of sharding and job count.
  std::vector<AttackShare> attack_mix;
};

/// Attack for device `index` under `spec` (the stateless hash pick).
[[nodiscard]] const std::string& fleet_device_attack(const FleetSpec& spec,
                                                     std::uint64_t index);

/// Weakest batching contract across the population's effective attack set
/// (base.attack, or every mix entry): kBitIdentical only when every attack
/// replays bit-identically under the fast path. Surfaced in the result
/// JSON and folded into the fleet fingerprint.
[[nodiscard]] BatchContract fleet_sampling_contract(const FleetSpec& spec);

/// Fingerprint of every trajectory-shaping field of the spec. Stored in
/// fleet checkpoints; resume refuses a file from a different population.
/// When the population's sampling contract is not bit-identical (stochastic
/// attacks in the mix, stochastic mode), the fastpath flag is part of the
/// fingerprint: fastpath and per-write trajectories are then only
/// distribution-equivalent, so resuming one campaign with the other mode's
/// shards would silently mix sampling contracts.
[[nodiscard]] std::uint64_t fleet_fingerprint(const FleetSpec& spec);

struct FleetOptions {
  /// Threads running shards, the calling thread included. 0 = all
  /// hardware threads, 1 = the calling thread only.
  std::size_t jobs{1};
  /// Crash safety: append every completed shard's aggregate to this
  /// MXWEJRNL journal file (sim/journal.h; O(shard) bytes per
  /// completion, torn tails self-heal on replay). Empty disables.
  std::string checkpoint_path;
  /// Replay completed shards from checkpoint_path and run only the rest.
  bool resume{false};
  /// Live progress sink (obs/heartbeat.h); nullptr = zero heartbeat work.
  HeartbeatSink* heartbeat{nullptr};
  /// Test hook: stop after this many newly-run shards (0 = run all).
  /// Simulates preemption without signals; the checkpoint then covers a
  /// deterministic shard subset.
  std::uint64_t stop_after_shards{0};
  /// Aggregate self-profile for the campaign; nullptr = no profiling.
  /// Each shard records into its own private Profiler (fleet.shard /
  /// fleet.device spans plus everything the engines record) and the
  /// per-shard instances are merged into this one in shard-index order
  /// after the join; per-thread utilization is attached too. Like the
  /// heartbeat, attaching a profiler cannot change the fleet result.
  Profiler* profiler{nullptr};
};

struct FleetResult {
  FleetAggregate aggregate;
  std::uint64_t shards_total{0};
  std::uint64_t shards_done{0};
  /// False when stop_after_shards cut the campaign short.
  [[nodiscard]] bool complete() const { return shards_done == shards_total; }
};

/// Run the campaign. Throws std::invalid_argument, before any device runs,
/// on an empty population, a bad mix, or an attack the population can draw
/// that breaks validate_experiment_config (a non-stationary attack in event
/// mode, say); std::runtime_error when resume meets a checkpoint written
/// by a different spec. A shard that throws does not stop the others:
/// they all run (and are journaled), then the exception of the
/// lowest-numbered failing shard is rethrown.
FleetResult run_fleet(const FleetSpec& spec, const FleetOptions& options = {});

/// Deterministic JSON rendering of a fleet result (fixed key order,
/// round-trip number formatting, no wall-clock fields) — the file
/// tools/fleet_report reads and the byte-identity tests compare.
[[nodiscard]] std::string fleet_result_json(const FleetSpec& spec,
                                            const FleetResult& result);

}  // namespace nvmsec
