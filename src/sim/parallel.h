// Parallel experiment execution: fan independent runs out across `jobs`
// threads with util/thread_pool.h's parallel_for (one code path at every
// job count) and return results in input order, bit-identical at any job
// count.
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
// At jobs = 1 the runs execute in input order on the calling thread, so a
// shared sink (one event log for a seed sweep) sees them back to back.
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
  /// Threads doing experiment work, the calling thread included. 0 = all
  /// hardware threads (hardware_workers()); 1 = the calling thread only.
  std::size_t jobs{0};
  /// Endurance-map cache shared by the runs when more than one thread runs
  /// them (sim/endurance_cache.h has the determinism contract); nullptr =
  /// the process-global EnduranceMapCache. A one-thread batch builds each
  /// run's map afresh.
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
  /// Every run records into its own private Profiler and the per-run
  /// instances are merged into this one in input order after the join
  /// (merge is associative and commutative, so the result does not depend
  /// on scheduling); per-thread utilization for the sweep section is
  /// attached too. Configs must not carry their own observer.profiler when
  /// this is set — the runner overwrites that field.
  Profiler* profiler{nullptr};
};

/// Run every config and return their LifetimeResults in input order. A
/// run that throws does not stop the others: they all run (and are
/// journaled), then the exception of the smallest failing index is
/// rethrown. Throws std::invalid_argument when jobs > 1 and two configs
/// share an observer sink.
std::vector<LifetimeResult> run_experiments(
    std::span<const ExperimentConfig> configs,
    const ParallelOptions& options = {});

/// Multi-bank module lifetime: `banks` independent per-bank experiments
/// (bank b uses seed config.seed + b) run as one run_experiments batch and
/// aggregated in bank order (aggregate_multi_bank). Identical results at
/// any job count. Throws on banks == 0.
MultiBankResult run_multi_bank(const ExperimentConfig& config,
                               std::uint32_t banks,
                               const ParallelOptions& options = {});

}  // namespace nvmsec
