#include "sim/parallel.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "obs/observer.h"
#include "obs/profiler.h"
#include "sim/endurance_cache.h"
#include "sim/journal.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace nvmsec {

namespace {

// jobs > 1 with the same sink object reachable from two runs would let two
// threads write one MetricsRegistry/TraceWriter/SnapshotEmitter
// concurrently; none of them are synchronized (by design — the serial hot
// path pays no locks). Detect sharing up front and fail with advice.
void reject_shared_sinks(std::span<const ExperimentConfig> configs) {
  std::unordered_set<const void*> seen;
  const auto check = [&seen](const void* sink, const char* kind) {
    if (sink == nullptr) return;
    if (!seen.insert(sink).second) {
      throw std::invalid_argument(
          std::string("run_experiments: the same ") + kind +
          " sink is attached to more than one run; shared observer sinks "
          "are serial-only — run with jobs = 1, or give each run its own "
          "sinks");
    }
  };
  for (const ExperimentConfig& config : configs) {
    check(config.observer.metrics, "metrics");
    check(config.observer.trace, "trace");
    check(config.observer.snapshots, "snapshot");
    check(config.observer.events, "event-log");
    check(config.observer.profiler, "profiler");
  }
}

void save_result(StateWriter& w, const LifetimeResult& r) {
  w.f64(r.user_writes);
  w.u64(r.overhead_writes);
  w.u64(r.absorbed_writes);
  w.u64(r.device_writes);
  w.f64(r.ideal_lifetime);
  w.f64(r.normalized);
  w.u64(r.line_deaths);
  w.boolean(r.failed);
  w.str(r.failure_reason);
  w.f64(r.wear_gini);
  w.u64(r.windows_observed);
  w.u64(r.anomalous_windows);
  w.u64(r.alarms_raised);
  w.u64(r.windows_in_alarm);
  w.u64(r.cadence_changes);
}

Status load_result(StateReader& r, LifetimeResult& out) {
  if (Status st = r.f64(out.user_writes); !st.ok()) return st;
  if (Status st = r.u64(out.overhead_writes); !st.ok()) return st;
  if (Status st = r.u64(out.absorbed_writes); !st.ok()) return st;
  if (Status st = r.u64(out.device_writes); !st.ok()) return st;
  if (Status st = r.f64(out.ideal_lifetime); !st.ok()) return st;
  if (Status st = r.f64(out.normalized); !st.ok()) return st;
  if (Status st = r.u64(out.line_deaths); !st.ok()) return st;
  if (Status st = r.boolean(out.failed); !st.ok()) return st;
  if (Status st = r.str(out.failure_reason); !st.ok()) return st;
  if (Status st = r.f64(out.wear_gini); !st.ok()) return st;
  if (Status st = r.u64(out.windows_observed); !st.ok()) return st;
  if (Status st = r.u64(out.anomalous_windows); !st.ok()) return st;
  if (Status st = r.u64(out.alarms_raised); !st.ok()) return st;
  if (Status st = r.u64(out.windows_in_alarm); !st.ok()) return st;
  return r.u64(out.cadence_changes);
}

/// Tracks which runs of a sweep have finished and appends one journal
/// record per completion (key = run index, payload = config fingerprint +
/// result), so a SIGKILL at any moment loses at most the run whose record
/// was being written.
class SweepCheckpoint {
 public:
  SweepCheckpoint(std::span<const ExperimentConfig> configs,
                  std::vector<LifetimeResult>& results)
      : results_(results), done_(configs.size(), 0) {
    fingerprints_.reserve(configs.size());
    for (const ExperimentConfig& c : configs) {
      fingerprints_.push_back(config_fingerprint(c));
    }
  }

  /// Open the journal at `path`. With `resume`, first replay it (missing
  /// file = fresh start) and prefill the runs it records; records whose
  /// config fingerprint does not match the current config at that index
  /// are re-run. Called before any worker starts.
  void open(const std::string& path, bool resume) {
    bool replayed_file = false;
    if (resume) {
      Result<std::vector<JournalRecord>> replayed =
          Journal::replay(path, kSweepJournalFingerprint, "kind of run");
      if (replayed.ok()) {
        replayed_file = true;
        for (const JournalRecord& rec : replayed.value()) prefill(rec);
      } else if (replayed.status().code() != StatusCode::kNotFound) {
        replayed.status().throw_if_error();
      }
    }
    journal_.open(path, kSweepJournalFingerprint, !replayed_file)
        .throw_if_error();
  }

  [[nodiscard]] bool is_done(std::size_t i) const { return done_[i] != 0; }

  /// Append run `i`'s finished result. Thread-safe.
  void record(std::size_t i) {
    StateWriter w;
    w.u64(fingerprints_[i]);
    save_result(w, results_[i]);
    const std::lock_guard<std::mutex> lock(mu_);
    journal_.append(i, w.buffer()).throw_if_error();
  }

 private:
  void prefill(const JournalRecord& rec) {
    StateReader r(rec.payload);
    std::uint64_t fingerprint = 0;
    LifetimeResult result;
    r.u64(fingerprint).throw_if_error();
    load_result(r, result).throw_if_error();
    if (!r.exhausted()) {
      Status::corruption("sweep checkpoint record has trailing bytes")
          .throw_if_error();
    }
    if (rec.key < done_.size() && fingerprint == fingerprints_[rec.key]) {
      results_[rec.key] = std::move(result);
      done_[rec.key] = 1;
    }
  }

  std::vector<LifetimeResult>& results_;
  std::vector<char> done_;
  std::vector<std::uint64_t> fingerprints_;
  Journal journal_;
  std::mutex mu_;
};

}  // namespace

std::vector<LifetimeResult> run_experiments(
    std::span<const ExperimentConfig> configs,
    const ParallelOptions& options) {
  std::vector<LifetimeResult> results(configs.size());
  if (configs.empty()) return results;

  std::unique_ptr<SweepCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    checkpoint = std::make_unique<SweepCheckpoint>(configs, results);
    checkpoint->open(options.checkpoint_path, options.resume);
  } else if (options.resume) {
    throw std::invalid_argument(
        "run_experiments: resume needs a checkpoint_path to resume from");
  }
  const auto skip = [&checkpoint](std::size_t i) {
    return checkpoint != nullptr && checkpoint->is_done(i);
  };
  const auto record = [&checkpoint](std::size_t i) {
    if (checkpoint != nullptr) checkpoint->record(i);
  };

  // Profiled sweeps give every run a private Profiler (no locks on the hot
  // path) and merge them into options.profiler in input order after the
  // join; the original configs are never mutated.
  std::vector<Profiler> run_profilers;
  std::vector<ExperimentConfig> profiled_configs;
  std::span<const ExperimentConfig> effective = configs;
  if (options.profiler != nullptr) {
    run_profilers.resize(configs.size());
    profiled_configs.assign(configs.begin(), configs.end());
    for (std::size_t i = 0; i < profiled_configs.size(); ++i) {
      profiled_configs[i].observer.profiler = &run_profilers[i];
    }
    effective = profiled_configs;
  }

  // The two rules that depend on the thread count: concurrent runs must
  // not share a sink, and they share endurance maps through the cache.
  const std::size_t threads = std::min(
      options.jobs == 0 ? hardware_workers() : options.jobs, configs.size());
  EnduranceMapCache* cache = nullptr;
  if (threads > 1) {
    reject_shared_sinks(effective);
    cache = options.cache != nullptr ? options.cache
                                     : &EnduranceMapCache::global();
  }

  std::vector<WorkerUtilization> utilization;
  const std::uint64_t section_start = Profiler::now_ns();
  const std::uint64_t cache_evictions_before =
      cache != nullptr ? cache->evictions() : 0;
  parallel_for(
      threads, effective.size(),
      [&](std::size_t i, std::size_t) {
        if (skip(i)) return;
        results[i] = run_experiment(effective[i], cache);
        record(i);
      },
      options.profiler != nullptr ? &utilization : nullptr);
  if (options.profiler != nullptr) {
    const std::uint64_t section_ns = Profiler::now_ns() - section_start;
    for (const Profiler& p : run_profilers) options.profiler->merge(p);
    options.profiler->set_utilization(utilization, section_ns);
    if (cache != nullptr) {
      // hit/miss per run already came through the merge; evictions are a
      // cache-wide property only the sweep level can see.
      options.profiler->add(ProfCounter::kEnduranceCacheEvict,
                            cache->evictions() - cache_evictions_before);
    }
  }
  return results;
}

MultiBankResult run_multi_bank(const ExperimentConfig& config,
                               std::uint32_t banks,
                               const ParallelOptions& options) {
  if (banks == 0) {
    throw std::invalid_argument("run_multi_bank: banks must be > 0");
  }
  std::vector<ExperimentConfig> bank_configs(banks, config);
  for (std::uint32_t b = 0; b < banks; ++b) {
    bank_configs[b].seed = config.seed + b;
  }
  const std::vector<LifetimeResult> results =
      run_experiments(bank_configs, options);
  std::vector<double> per_bank;
  per_bank.reserve(banks);
  for (const LifetimeResult& r : results) per_bank.push_back(r.normalized);
  return aggregate_multi_bank(std::move(per_bank));
}

}  // namespace nvmsec
