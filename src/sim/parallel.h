// Parallel experiment execution: fan independent runs out across a worker
// pool, return results in input order, guarantee bit-identity with the
// serial path.
//
// Why this is safe: `run_experiment` is self-contained — every run derives
// all randomness from its own `Rng(config.seed)`, owns its device, attack,
// wear leveler and spare scheme, and shares only the immutable endurance
// map (via EnduranceMapCache). There is no global state to race on, so the
// only ordering that matters is the reduction order of whoever consumes
// the results — which is why this API returns a vector in input order and
// leaves reductions (RunningStats etc.) to the caller's thread.
//
// Observers: a config carrying its *own* sinks is fine at any job count
// (the run is the only writer). The same sink pointer appearing in more
// than one config is a data race waiting to happen; that is rejected with
// a specific error when jobs > 1 instead of corrupting metrics silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/multi_bank.h"

namespace nvmsec {

class EnduranceMapCache;
class Profiler;

/// Header fingerprint of sweep checkpoint journals (sim/journal.h). Each
/// record carries its own run's config fingerprint, so a config change
/// re-runs only that run; the header just marks the file as a sweep
/// checkpoint, which keeps engine checkpoints and fleet journals from being
/// mistaken for one.
inline constexpr std::uint64_t kSweepJournalFingerprint = 0x53574545504A524EULL;

struct ParallelOptions {
  /// Worker threads doing experiment work. 0 = all hardware threads
  /// (ThreadPool::hardware_workers()). 1 = strictly serial on the calling
  /// thread, today's exact single-threaded code path (no pool, no cache).
  std::size_t jobs{0};
  /// Share endurance maps across runs with identical (geometry, endurance,
  /// seed, jitter) — see sim/endurance_cache.h for the determinism
  /// contract. Ignored (off) when jobs == 1.
  bool use_cache{true};
  /// Cache to use; nullptr = the process-global EnduranceMapCache.
  EnduranceMapCache* cache{nullptr};

  /// Sweep-level crash safety: after every completed run, append one
  /// (index, config fingerprint, result) record to this journal file
  /// (sim/journal.h). Empty disables. Independent of — and composable
  /// with — the per-run engine checkpoints in ExperimentConfig.
  std::string checkpoint_path;
  /// Prefill results from checkpoint_path (when the file exists) and skip
  /// the runs already recorded there. A record whose config fingerprint no
  /// longer matches the config at that index is discarded and re-run.
  bool resume{false};

  /// Aggregate self-profile for the whole sweep; nullptr = no profiling.
  /// At jobs > 1 every run records into its own private Profiler and the
  /// per-run instances are merged into this one in input order after the
  /// join (merge is associative and commutative, so the result does not
  /// depend on scheduling); pool worker utilization for the sweep section
  /// is attached too. Configs must not carry their own observer.profiler
  /// when this is set — the runner overwrites that field.
  Profiler* profiler{nullptr};

  [[nodiscard]] std::size_t effective_jobs() const;
};

/// Run every config and return their LifetimeResults in input order.
/// Exceptions from individual runs propagate (smallest failing index
/// wins deterministically). Throws std::invalid_argument when jobs > 1
/// and two configs share an observer sink.
std::vector<LifetimeResult> run_experiments(
    std::span<const ExperimentConfig> configs,
    const ParallelOptions& options = {});

/// Parallel multi-bank lifetime: same per-bank seeding and the same
/// first-bank-at-minimum aggregation as the serial run_multi_bank, with
/// bank runs fanned out across the pool. Identical results at any job
/// count.
MultiBankResult run_multi_bank(const ExperimentConfig& config,
                               std::uint32_t banks,
                               const ParallelOptions& options);

}  // namespace nvmsec
