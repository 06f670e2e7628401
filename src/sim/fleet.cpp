#include "sim/fleet.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "attack/mixed.h"
#include "obs/event_log.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/profiler.h"
#include "sim/journal.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace nvmsec {

// ---------------------------------------------------------------------------
// Failure-cause extraction

namespace {

/// No end_of_life event survived (truncated log, or a run without an event
/// sink): classify the LifetimeResult instead of reporting garbage.
std::string classify_from_result(const LifetimeResult& result) {
  if (!result.failed) return std::string(kCauseWriteCapReached);
  if (result.failure_reason.starts_with("unreplaceable wear-out")) {
    return std::string(kCauseUnreplaceableWearOut);
  }
  if (result.failure_reason.starts_with("all backed lines worn")) {
    return std::string(kCauseAllBackedLinesWorn);
  }
  return std::string(kCauseUnknown);
}

}  // namespace

std::string classify_failure_cause(std::string_view event_jsonl,
                                   const LifetimeResult& result,
                                   bool* log_truncated) {
  if (log_truncated != nullptr) *log_truncated = false;
  std::string from_event;
  bool truncated = false;
  try {
    for (const minijson::JsonValue& ev : minijson::parse_jsonl(event_jsonl)) {
      const minijson::JsonValue* type = ev.find("type");
      if (type == nullptr || !type->is_string()) continue;
      if (type->string == "end_of_life") {
        if (const minijson::JsonValue* cause = ev.find("cause");
            cause != nullptr && cause->is_string()) {
          from_event = cause->string;
        }
      } else if (type->string == "log_truncated") {
        truncated = true;
      }
    }
  } catch (const std::exception&) {
    // An unparseable log gets the same graceful fallback as a truncated one.
    from_event.clear();
  }
  if (log_truncated != nullptr) *log_truncated = truncated;
  if (!from_event.empty()) return from_event;
  return classify_from_result(result);
}

std::string classify_failure_cause(const EventLog& log,
                                   const LifetimeResult& result,
                                   bool* log_truncated) {
  if (log_truncated != nullptr) *log_truncated = log.truncated();
  if (!log.end_of_life_cause().empty()) return log.end_of_life_cause();
  return classify_from_result(result);
}

// ---------------------------------------------------------------------------
// ExemplarSet

ExemplarSet::ExemplarSet(std::size_t capacity, bool keep_lowest)
    : capacity_(capacity), keep_lowest_(keep_lowest) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ExemplarSet: capacity must be > 0");
  }
}

bool ExemplarSet::before(const Exemplar& a, const Exemplar& b) const {
  if (a.value != b.value) {
    return keep_lowest_ ? a.value < b.value : a.value > b.value;
  }
  return a.id < b.id;
}

void ExemplarSet::add(std::uint64_t id, double value) {
  const Exemplar e{value, id};
  const auto pos = std::lower_bound(
      items_.begin(), items_.end(), e,
      [this](const Exemplar& a, const Exemplar& b) { return before(a, b); });
  if (pos != items_.end() && pos->value == e.value && pos->id == e.id) return;
  items_.insert(pos, e);
  if (items_.size() > capacity_) items_.resize(capacity_);
}

void ExemplarSet::merge(const ExemplarSet& other) {
  if (capacity_ != other.capacity_ || keep_lowest_ != other.keep_lowest_) {
    throw std::invalid_argument("ExemplarSet::merge: shape mismatch");
  }
  for (const Exemplar& e : other.items_) add(e.id, e.value);
}

void ExemplarSet::save_state(StateWriter& w) const {
  w.u64(capacity_);
  w.boolean(keep_lowest_);
  w.u64(items_.size());
  for (const Exemplar& e : items_) {
    w.f64(e.value);
    w.u64(e.id);
  }
}

Status ExemplarSet::load_state(StateReader& r) {
  std::uint64_t capacity = 0;
  if (Status st = r.u64(capacity); !st.ok()) return st;
  if (capacity == 0) return Status::corruption("ExemplarSet: zero capacity");
  if (Status st = r.boolean(keep_lowest_); !st.ok()) return st;
  std::uint64_t n = 0;
  if (Status st = r.count(n, 16); !st.ok()) return st;
  if (n > capacity) {
    return Status::corruption("ExemplarSet: more items than capacity");
  }
  capacity_ = static_cast<std::size_t>(capacity);
  items_.clear();
  items_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Exemplar e;
    if (Status st = r.f64(e.value); !st.ok()) return st;
    if (Status st = r.u64(e.id); !st.ok()) return st;
    items_.push_back(e);
  }
  return Status::ok_status();
}

// ---------------------------------------------------------------------------
// FleetAggregate

void FleetAggregate::add(std::uint64_t device_id, const LifetimeResult& result,
                         const std::string& cause, bool log_truncated) {
  lifetime.add(result.normalized);
  user_writes.add(result.user_writes);
  if (result.wear_gini >= 0) wear_gini.add(result.wear_gini);
  // Detector stats fold in only for detector-enabled devices: a window
  // count of 0 means "no detector ran", and mixing those zeros into the
  // population summaries would dilute the alarm-rate statistics.
  if (result.windows_observed > 0) {
    alarms_raised.add(static_cast<double>(result.alarms_raised));
    windows_in_alarm.add(static_cast<double>(result.windows_in_alarm));
    cadence_changes.add(static_cast<double>(result.cadence_changes));
    if (result.alarms_raised > 0) ++devices_alarmed;
  }
  lifetime_hist.add(result.normalized);
  ++failure_causes[cause];
  worst.add(device_id, result.normalized);
  best.add(device_id, result.normalized);
  sample.add(device_id, result.normalized);
  ++devices;
  if (log_truncated) ++truncated_logs;
}

void FleetAggregate::merge(const FleetAggregate& other) {
  lifetime.merge(other.lifetime);
  user_writes.merge(other.user_writes);
  wear_gini.merge(other.wear_gini);
  alarms_raised.merge(other.alarms_raised);
  windows_in_alarm.merge(other.windows_in_alarm);
  cadence_changes.merge(other.cadence_changes);
  devices_alarmed += other.devices_alarmed;
  lifetime_hist.merge(other.lifetime_hist);
  for (const auto& [cause, count] : other.failure_causes) {
    failure_causes[cause] += count;
  }
  worst.merge(other.worst);
  best.merge(other.best);
  sample.merge(other.sample);
  devices += other.devices;
  truncated_logs += other.truncated_logs;
}

void FleetAggregate::compress() {
  lifetime.compress();
  user_writes.compress();
  wear_gini.compress();
  alarms_raised.compress();
  windows_in_alarm.compress();
  cadence_changes.compress();
}

void FleetAggregate::save_state(StateWriter& w) const {
  lifetime.save_state(w);
  user_writes.save_state(w);
  wear_gini.save_state(w);
  alarms_raised.save_state(w);
  windows_in_alarm.save_state(w);
  cadence_changes.save_state(w);
  w.u64(devices_alarmed);
  lifetime_hist.save_state(w);
  w.u64(failure_causes.size());
  for (const auto& [cause, count] : failure_causes) {
    w.str(cause);
    w.u64(count);
  }
  worst.save_state(w);
  best.save_state(w);
  sample.save_state(w);
  w.u64(devices);
  w.u64(truncated_logs);
}

Status FleetAggregate::load_state(StateReader& r) {
  if (Status st = lifetime.load_state(r); !st.ok()) return st;
  if (Status st = user_writes.load_state(r); !st.ok()) return st;
  if (Status st = wear_gini.load_state(r); !st.ok()) return st;
  if (Status st = alarms_raised.load_state(r); !st.ok()) return st;
  if (Status st = windows_in_alarm.load_state(r); !st.ok()) return st;
  if (Status st = cadence_changes.load_state(r); !st.ok()) return st;
  if (Status st = r.u64(devices_alarmed); !st.ok()) return st;
  if (Status st = lifetime_hist.load_state(r); !st.ok()) return st;
  std::uint64_t n = 0;
  if (Status st = r.u64(n); !st.ok()) return st;
  failure_causes.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string cause;
    std::uint64_t count = 0;
    if (Status st = r.str(cause); !st.ok()) return st;
    if (Status st = r.u64(count); !st.ok()) return st;
    failure_causes[cause] = count;
  }
  if (Status st = worst.load_state(r); !st.ok()) return st;
  if (Status st = best.load_state(r); !st.ok()) return st;
  if (Status st = sample.load_state(r); !st.ok()) return st;
  if (Status st = r.u64(devices); !st.ok()) return st;
  return r.u64(truncated_logs);
}

// ---------------------------------------------------------------------------
// Spec helpers

namespace {

constexpr std::uint64_t kAttackPickSalt = 0xA77AC4A11D0C7015ULL;

void validate_spec(const FleetSpec& spec) {
  if (spec.devices == 0) {
    throw std::invalid_argument("run_fleet: devices must be > 0");
  }
  if (spec.shard_size == 0) {
    throw std::invalid_argument("run_fleet: shard_size must be > 0");
  }
  if (spec.event_log_max_events == 0) {
    throw std::invalid_argument("run_fleet: event_log_max_events must be > 0");
  }
  for (const AttackShare& share : spec.attack_mix) {
    if (share.attack.empty() || !(share.weight > 0)) {
      throw std::invalid_argument(
          "run_fleet: attack mix entries need a name and a positive weight");
    }
  }
}

std::uint64_t fnv_mix(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv_mix_u64(std::uint64_t h, std::uint64_t v) {
  return fnv_mix(h, &v, sizeof(v));
}

}  // namespace

const std::string& fleet_device_attack(const FleetSpec& spec,
                                       std::uint64_t index) {
  if (spec.attack_mix.empty()) return spec.base.attack;
  double total = 0;
  for (const AttackShare& share : spec.attack_mix) total += share.weight;
  SplitMix64 mix(kAttackPickSalt ^ spec.seed_start ^
                 (index * 0x9E3779B97F4A7C15ULL));
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53 * total;
  double cum = 0;
  for (const AttackShare& share : spec.attack_mix) {
    cum += share.weight;
    if (u < cum) return share.attack;
  }
  return spec.attack_mix.back().attack;  // floating-point slack only
}

namespace {

/// attack_batch_contract, extended with the composite "mixed" attack: its
/// contract is the weakest among its phases (see attack/mixed.h).
BatchContract fleet_attack_contract(const FleetSpec& spec,
                                    const std::string& name) {
  if (name != "mixed") return attack_batch_contract(name);
  BatchContract worst = BatchContract::kBitIdentical;
  for (const MixedPhaseSpec& p : parse_mixed_phases(spec.base.mixed_phases)) {
    worst = std::max(worst, attack_batch_contract(p.attack));
  }
  return worst;
}

}  // namespace

BatchContract fleet_sampling_contract(const FleetSpec& spec) {
  // The weakest (largest) contract across the attacks any device can run.
  if (spec.attack_mix.empty()) {
    return fleet_attack_contract(spec, spec.base.attack);
  }
  BatchContract worst = BatchContract::kBitIdentical;
  for (const AttackShare& share : spec.attack_mix) {
    worst = std::max(worst, fleet_attack_contract(spec, share.attack));
  }
  return worst;
}

std::uint64_t fleet_fingerprint(const FleetSpec& spec) {
  // The base config's own seed and attack are overridden per device, so
  // they must not perturb the fingerprint; the seed stream and the mix are
  // hashed explicitly instead.
  ExperimentConfig canonical = spec.base;
  canonical.seed = 0;
  if (!spec.attack_mix.empty()) canonical.attack = "";
  std::uint64_t h = fnv_mix_u64(14695981039346656037ULL,
                                config_fingerprint(canonical));
  h = fnv_mix_u64(h, spec.devices);
  h = fnv_mix_u64(h, spec.seed_start);
  h = fnv_mix_u64(h, spec.shard_size);
  h = fnv_mix_u64(h, spec.event_log_max_events);
  h = fnv_mix_u64(h, spec.attack_mix.size());
  for (const AttackShare& share : spec.attack_mix) {
    h = fnv_mix(h, share.attack.data(), share.attack.size());
    h = fnv_mix_u64(h, std::bit_cast<std::uint64_t>(share.weight));
  }
  // Sampling-contract compatibility: when any attack in the population is
  // not bit-identical under batching, a stochastic-mode campaign's
  // trajectories depend on the fastpath flag (distribution-equivalent, not
  // equal), so fastpath-on and fastpath-off campaigns must not share
  // checkpoints. Bit-identical populations keep the PR-5 behavior:
  // checkpoints interchange across fastpath on/off.
  if (spec.base.mode == SimulationMode::kStochastic &&
      fleet_sampling_contract(spec) != BatchContract::kBitIdentical) {
    h = fnv_mix_u64(h, spec.base.fastpath ? 1 : 0);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Campaign driver

namespace {

std::uint64_t shard_first(const FleetSpec& spec, std::uint64_t shard) {
  return shard * spec.shard_size;
}

std::uint64_t shard_count(const FleetSpec& spec, std::uint64_t shard) {
  const std::uint64_t first = shard_first(spec, shard);
  return std::min(spec.shard_size, spec.devices - first);
}

/// Run one shard's devices (in device order) into a fresh aggregate and
/// serialize it into `record`, the shard's journal record. Serializing
/// canonicalizes the sketches in place once more, and that can regroup
/// centroids, so every campaign serializes each shard, journal or not, and
/// folds the aggregate in its record's form: journaled, unjournaled and
/// resumed campaigns then fold the same bytes.
/// `prof` is the shard's private profiler (nullptr = no profiling): the
/// shard runs on exactly one thread and its profiler is merged after the
/// join, so the engines can record into it with no synchronization.
/// `workspace` is the thread's reusable setup state (map, spare scheme,
/// device, event scratch); it is an allocation strategy only and cannot
/// change the aggregate.
FleetAggregate run_shard(const FleetSpec& spec, std::uint64_t shard,
                         ExperimentWorkspace* workspace, Profiler* prof,
                         StateWriter& record) {
  const ScopedProfPhase shard_span(prof, ProfPhase::kFleetShard);
  FleetAggregate agg;
  const std::uint64_t first = shard_first(spec, shard);
  const std::uint64_t count = shard_count(spec, shard);
  // One config and one event log serve the whole shard; per-device setup
  // touches only the fields that vary (seed and attack). Fleet devices are
  // self-contained: no caller sinks (they would race across shards), no
  // per-device checkpoint files. The two sinks a device gets are its own
  // count-only event log — cause capture with identical admission
  // arithmetic to a streaming log, but no JSON formatting or parsing — and
  // the shard's private profiler.
  ExperimentConfig config = spec.base;
  config.observer = Observer{};
  config.checkpoint_out.clear();
  config.checkpoint_interval = 0;
  config.resume_from.clear();
  EventLog log(spec.event_log_max_events);
  config.observer.events = &log;
  config.observer.profiler = prof;
  for (std::uint64_t d = first; d < first + count; ++d) {
    config.seed = spec.seed_start + d;
    config.attack = fleet_device_attack(spec, d);
    log.reset(spec.event_log_max_events);

    const LifetimeResult result = [&] {
      const ScopedProfPhase device_span(prof, ProfPhase::kFleetDevice);
      return run_experiment(config, nullptr, workspace);
    }();
    log.finalize();
    bool truncated = false;
    const std::string cause = classify_failure_cause(log, result, &truncated);
    agg.add(d, result, cause, truncated);
  }
  agg.compress();
  agg.save_state(record);
  return agg;
}

HeartbeatSample make_sample(const FleetAggregate& progress,
                            std::uint64_t devices_total) {
  HeartbeatSample s;
  s.devices_done = progress.devices;
  s.devices_total = devices_total;
  s.p50 = progress.lifetime.quantile(0.50);
  s.p99 = progress.lifetime.quantile(0.99);
  s.failure_causes.assign(progress.failure_causes.begin(),
                          progress.failure_causes.end());
  s.truncated_logs = progress.truncated_logs;
  return s;
}

}  // namespace

FleetResult run_fleet(const FleetSpec& spec, const FleetOptions& options) {
  validate_spec(spec);
  const std::uint64_t num_shards =
      (spec.devices + spec.shard_size - 1) / spec.shard_size;
  const std::uint64_t fingerprint = fleet_fingerprint(spec);

  // Completed shards not yet folded into the result, by shard index.
  std::map<std::uint64_t, FleetAggregate> unfolded;

  if (options.resume && options.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "run_fleet: resume needs a checkpoint_path to resume from");
  }
  bool journal_exists = false;
  if (options.resume) {
    Result<std::vector<JournalRecord>> replayed = Journal::replay(
        options.checkpoint_path, fingerprint, "population spec");
    if (replayed.ok()) {
      journal_exists = true;
      for (const JournalRecord& rec : replayed.value()) {
        if (rec.key >= num_shards) {
          throw std::runtime_error(
              "run_fleet: journal shard index out of range");
        }
        // A shard may appear twice (crash between append and the process
        // dying, then a re-run): records are immutable once framed, so the
        // last one simply wins.
        FleetAggregate agg;
        StateReader shard_reader(rec.payload);
        agg.load_state(shard_reader).throw_if_error();
        unfolded.insert_or_assign(rec.key, std::move(agg));
      }
    } else if (replayed.status().code() != StatusCode::kNotFound) {
      replayed.status().throw_if_error();
    }
  }
  Journal journal;
  if (!options.checkpoint_path.empty()) {
    // Fresh campaigns (and resumes that found no file) start a new journal;
    // a replayed journal is extended in place — its torn tail, if any, was
    // truncated during replay.
    journal.open(options.checkpoint_path, fingerprint,
                 /*truncate=*/!journal_exists)
        .throw_if_error();
  }

  std::vector<std::uint64_t> pending;
  for (std::uint64_t i = 0; i < num_shards; ++i) {
    if (!unfolded.contains(i)) pending.push_back(i);
  }
  if (options.stop_after_shards > 0 &&
      pending.size() > options.stop_after_shards) {
    pending.resize(options.stop_after_shards);
  }

  // Per-shard private profilers: a shard is claimed by exactly one thread,
  // so its profiler needs no locks; everything merges into options.profiler
  // in shard-index order after the join (merge is associative and
  // commutative, so the result is scheduling-independent).
  Profiler* const prof = options.profiler;
  std::vector<Profiler> shard_profilers(prof != nullptr ? num_shards : 0);
  const auto shard_prof = [&](std::uint64_t shard) -> Profiler* {
    return prof != nullptr ? &shard_profilers[shard] : nullptr;
  };

  const std::size_t jobs = std::min<std::size_t>(
      options.jobs == 0 ? hardware_workers() : options.jobs,
      std::max<std::size_t>(pending.size(), 1));
  // One reusable setup state per thread slot, so every device after a
  // thread's first recycles its map/spare/device/event scratch instead of
  // reallocating them. Fleet device seeds are all distinct, so an
  // endurance-map cache would never hit; the workspaces' in-place map
  // rebuilds replace it.
  std::vector<ExperimentWorkspace> workspaces(jobs);

  // Completion-side state: the fold into the result, checkpoint appends,
  // heartbeat progress and shard wall-time telemetry, all updated under one
  // lock. The result folds shards in index order: each completed shard
  // waits in `unfolded` until every shard before it has folded, so the
  // bytes are the same at every job count. The progress aggregate merges
  // in completion order — telemetry only.
  std::mutex mu;
  FleetResult result;
  result.shards_total = num_shards;
  std::uint64_t next_fold = 0;
  const auto fold_ready = [&] {
    for (auto it = unfolded.begin();
         it != unfolded.end() && it->first == next_fold;
         it = unfolded.erase(it)) {
      result.aggregate.merge(it->second);
      ++result.shards_done;
      ++next_fold;
    }
  };
  FleetAggregate progress;
  std::uint64_t shards_done_live = unfolded.size();
  std::uint64_t shards_timed = 0;
  std::uint64_t shard_wall_sum_ns = 0;
  std::uint64_t shard_wall_max_ns = 0;
  if (options.heartbeat != nullptr) {
    for (const auto& [shard, agg] : unfolded) progress.merge(agg);
  }
  const auto make_sample_locked = [&]() {
    HeartbeatSample s = make_sample(progress, spec.devices);
    s.shards_done = shards_done_live;
    s.shards_total = num_shards;
    s.workers = jobs;
    s.shards_timed = shards_timed;
    s.shard_sec_sum = static_cast<double>(shard_wall_sum_ns) * 1e-9;
    s.shard_sec_max = static_cast<double>(shard_wall_max_ns) * 1e-9;
    if (journal.is_open()) {
      s.checkpoint_bytes_written =
          static_cast<std::int64_t>(journal.bytes_written());
    }
    return s;
  };
  const auto complete_shard = [&](std::uint64_t shard, FleetAggregate agg,
                                  const StateWriter& record,
                                  std::uint64_t wall_ns) {
    const std::lock_guard<std::mutex> lock(mu);
    ++shards_done_live;
    ++shards_timed;
    shard_wall_sum_ns += wall_ns;
    shard_wall_max_ns = std::max(shard_wall_max_ns, wall_ns);
    // The journal append and the fold are serialized by the lock; both are
    // charged to the shard whose completion triggered them (that profiler
    // is still exclusively this thread's until the merge after the join).
    if (journal.is_open()) {
      const ScopedProfPhase ckpt_span(shard_prof(shard),
                                      ProfPhase::kFleetCheckpoint);
      journal.append(shard, record.buffer()).throw_if_error();
    }
    if (options.heartbeat != nullptr) {
      progress.merge(agg);
      options.heartbeat->sample(make_sample_locked());
    }
    unfolded.emplace(shard, std::move(agg));
    if (unfolded.begin()->first == next_fold) {
      const ScopedProfPhase fold_span(shard_prof(shard),
                                      ProfPhase::kFleetFold);
      fold_ready();
    }
  };
  const auto run_one = [&](std::size_t k, std::size_t thread) {
    const std::uint64_t shard = pending[k];
    const std::uint64_t start_ns = Profiler::now_ns();
    StateWriter record;
    FleetAggregate agg = run_shard(spec, shard, &workspaces[thread],
                                   shard_prof(shard), record);
    complete_shard(shard, std::move(agg), record,
                   Profiler::now_ns() - start_ns);
  };

  std::vector<WorkerUtilization> utilization;
  const std::uint64_t section_start = Profiler::now_ns();
  parallel_for(jobs, pending.size(), run_one,
               prof != nullptr ? &utilization : nullptr);
  if (prof != nullptr) {
    prof->set_utilization(utilization, Profiler::now_ns() - section_start);
    for (const Profiler& p : shard_profilers) prof->merge(p);
  }

  {
    // What is left waits behind a shard that never ran (stop_after_shards)
    // or sits after one (a resume's gaps): fold it in index order.
    const ScopedProfPhase merge_span(prof, ProfPhase::kFleetMerge);
    for (const auto& [shard, agg] : unfolded) {
      result.aggregate.merge(agg);
      ++result.shards_done;
    }
    unfolded.clear();
    result.aggregate.compress();
  }
  if (options.heartbeat != nullptr) {
    const std::lock_guard<std::mutex> lock(mu);
    options.heartbeat->finish(make_sample_locked());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Deterministic result JSON

namespace {

void append_kv(std::string& out, std::string_view key, double value,
               bool* first) {
  if (!*first) out += ',';
  *first = false;
  json_append_string(out, key);
  out += ':';
  json_append_number(out, value);
}

void append_summary(std::string& out, std::string_view key,
                    const StreamSummary& s) {
  json_append_string(out, key);
  out += ":{";
  bool first = true;
  append_kv(out, "count", static_cast<double>(s.count()), &first);
  append_kv(out, "mean", s.mean(), &first);
  append_kv(out, "stddev", s.stddev(), &first);
  append_kv(out, "min", s.count() > 0 ? s.min() : 0.0, &first);
  append_kv(out, "max", s.count() > 0 ? s.max() : 0.0, &first);
  static constexpr std::pair<const char*, double> kQuantiles[] = {
      {"p1", 0.01},  {"p5", 0.05},  {"p25", 0.25}, {"p50", 0.50},
      {"p75", 0.75}, {"p95", 0.95}, {"p99", 0.99}};
  for (const auto& [name, q] : kQuantiles) {
    append_kv(out, name, s.quantile(q), &first);
  }
  out += '}';
}

void append_exemplars(std::string& out, std::string_view key,
                      const std::vector<ExemplarSet::Exemplar>& items,
                      std::uint64_t seed_start) {
  json_append_string(out, key);
  out += ":[";
  bool first = true;
  for (const ExemplarSet::Exemplar& e : items) {
    if (!first) out += ',';
    first = false;
    out += R"({"device":)";
    json_append_number(out, static_cast<double>(e.id));
    out += R"(,"seed":)";
    json_append_number(out, static_cast<double>(seed_start + e.id));
    out += R"(,"normalized":)";
    json_append_number(out, e.value);
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string fleet_result_json(const FleetSpec& spec,
                              const FleetResult& result) {
  const FleetAggregate& agg = result.aggregate;
  std::string out;
  out += R"({"v":1,"type":"fleet_result","spec":{"devices":)";
  json_append_number(out, static_cast<double>(spec.devices));
  out += R"(,"seed_start":)";
  json_append_number(out, static_cast<double>(spec.seed_start));
  out += R"(,"shard_size":)";
  json_append_number(out, static_cast<double>(spec.shard_size));
  out += R"(,"mode":)";
  json_append_string(out, simulation_mode_name(spec.base.mode));
  out += R"(,"attack":)";
  json_append_string(out, spec.base.attack);
  out += R"(,"attack_phases":)";
  json_append_string(out, spec.base.mixed_phases);
  out += R"(,"detect":)";
  out += spec.base.detect ? "true" : "false";
  out += R"(,"adaptive":)";
  out += spec.base.adaptive ? "true" : "false";
  out += R"(,"attack_mix":[)";
  bool first = true;
  for (const AttackShare& share : spec.attack_mix) {
    if (!first) out += ',';
    first = false;
    out += R"({"attack":)";
    json_append_string(out, share.attack);
    out += R"(,"weight":)";
    json_append_number(out, share.weight);
    out += '}';
  }
  out += R"(],"wl":)";
  json_append_string(out, spec.base.wear_leveler);
  out += R"(,"spare":)";
  json_append_string(out, spec.base.spare_scheme);
  out += R"(,"spare_fraction":)";
  json_append_number(out, spec.base.spare_fraction);
  out += R"(,"swr_fraction":)";
  json_append_number(out, spec.base.swr_fraction);
  out += R"(,"lines":)";
  json_append_number(out,
                     static_cast<double>(spec.base.geometry.num_lines()));
  out += R"(,"regions":)";
  json_append_number(out,
                     static_cast<double>(spec.base.geometry.num_regions()));
  out += R"(,"fastpath":)";
  out += spec.base.fastpath ? "true" : "false";
  out += R"(,"sampling_contract":)";
  json_append_string(out, batch_contract_name(fleet_sampling_contract(spec)));
  out += R"(,"fingerprint":)";
  json_append_string(out, std::to_string(fleet_fingerprint(spec)));
  out += R"(},"shards_total":)";
  json_append_number(out, static_cast<double>(result.shards_total));
  out += R"(,"shards_done":)";
  json_append_number(out, static_cast<double>(result.shards_done));
  out += R"(,"complete":)";
  out += result.complete() ? "true" : "false";
  out += R"(,"devices":)";
  json_append_number(out, static_cast<double>(agg.devices));
  out += R"(,"truncated_logs":)";
  json_append_number(out, static_cast<double>(agg.truncated_logs));
  out += ',';
  append_summary(out, "lifetime", agg.lifetime);
  out += ',';
  append_summary(out, "user_writes", agg.user_writes);
  out += ',';
  append_summary(out, "wear_gini", agg.wear_gini);
  out += R"(,"detector":{"devices_alarmed":)";
  json_append_number(out, static_cast<double>(agg.devices_alarmed));
  out += ',';
  append_summary(out, "alarms_raised", agg.alarms_raised);
  out += ',';
  append_summary(out, "windows_in_alarm", agg.windows_in_alarm);
  out += ',';
  append_summary(out, "cadence_changes", agg.cadence_changes);
  out += '}';
  out += R"(,"lifetime_hist":{"lo":)";
  json_append_number(out, agg.lifetime_hist.lo());
  out += R"(,"growth":)";
  json_append_number(out, agg.lifetime_hist.growth());
  out += R"(,"underflow":)";
  json_append_number(out, static_cast<double>(agg.lifetime_hist.underflow()));
  out += R"(,"overflow":)";
  json_append_number(out, static_cast<double>(agg.lifetime_hist.overflow()));
  out += R"(,"buckets":[)";
  first = true;
  for (std::size_t i = 0; i < agg.lifetime_hist.bucket_count(); ++i) {
    if (agg.lifetime_hist.bucket(i) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    json_append_number(out, agg.lifetime_hist.bucket_lo(i));
    out += ',';
    json_append_number(out, agg.lifetime_hist.bucket_hi(i));
    out += ',';
    json_append_number(out, static_cast<double>(agg.lifetime_hist.bucket(i)));
    out += ']';
  }
  out += R"(]},"failure_causes":{)";
  first = true;
  for (const auto& [cause, count] : agg.failure_causes) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, cause);
    out += ':';
    json_append_number(out, static_cast<double>(count));
  }
  out += "},";
  append_exemplars(out, "worst", agg.worst.items(), spec.seed_start);
  out += ',';
  append_exemplars(out, "best", agg.best.items(), spec.seed_start);
  out += R"(,"sample":[)";
  first = true;
  for (const WeightedReservoir::Item& item : agg.sample.items()) {
    if (!first) out += ',';
    first = false;
    out += R"({"device":)";
    json_append_number(out, static_cast<double>(item.id));
    out += R"(,"seed":)";
    json_append_number(out, static_cast<double>(spec.seed_start + item.id));
    out += R"(,"normalized":)";
    json_append_number(out, item.value);
    out += '}';
  }
  out += "]}";
  out += '\n';
  return out;
}

}  // namespace nvmsec
