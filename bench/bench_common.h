// Shared helpers for the figure/table reproduction benches.
//
// Every sweep helper here routes through sim/parallel.h: runs fan out
// across `--jobs` workers, results come back in input order, and the
// reduction happens on the calling thread — so a bench's numbers are
// bit-identical at any job count (see docs/architecture.md, "Threading
// model & determinism").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/parallel.h"
#include "util/cli.h"
#include "util/sketch.h"

namespace nvmsec::bench {

/// Register the shared --jobs flag (0 = all hardware threads; 1 = the
/// calling thread only). Call before cli.parse().
inline void add_jobs_flag(CliParser& cli) {
  cli.add_flag("jobs",
               "worker threads (0 = all cores, 1 = the calling thread only)",
               "0");
}

/// Read --jobs back into ParallelOptions.
inline ParallelOptions jobs_from_cli(const CliParser& cli) {
  ParallelOptions options;
  options.jobs = static_cast<std::size_t>(cli.get_uint("jobs"));
  return options;
}

/// Distribution of normalized lifetime across a seed sweep: exact moments
/// plus sketch percentiles, built on the same StreamSummary the fleet
/// aggregates use. The reduction is a deterministic input-order
/// (seed-order) pass over the results, so the summary — sketch centroids
/// included — is bit-identical at any job count.
struct SeedSweepStats {
  StreamSummary summary;

  [[nodiscard]] double mean() const { return summary.mean(); }
  [[nodiscard]] double stddev() const { return summary.stddev(); }
  [[nodiscard]] double min() const { return summary.min(); }
  [[nodiscard]] double max() const { return summary.max(); }
  /// Sketch percentile, q in [0, 1] (exact for small sweeps, where every
  /// seed fits its own centroid).
  [[nodiscard]] double quantile(double q) const { return summary.quantile(q); }
};

/// Run `seeds` experiments (base_seed, base_seed+1, ...) and reduce in seed
/// order.
inline SeedSweepStats lifetime_over_seeds(
    ExperimentConfig config, std::uint64_t seeds, std::uint64_t base_seed = 42,
    const ParallelOptions& options = {}) {
  std::vector<ExperimentConfig> configs(seeds, config);
  for (std::uint64_t s = 0; s < seeds; ++s) configs[s].seed = base_seed + s;
  const std::vector<LifetimeResult> results =
      run_experiments(configs, options);
  SeedSweepStats stats;
  for (const LifetimeResult& r : results) stats.summary.add(r.normalized);
  return stats;
}

/// Average a lifetime experiment over `seeds` seeds starting at base_seed.
inline double mean_normalized_lifetime(ExperimentConfig config,
                                       std::uint64_t seeds,
                                       std::uint64_t base_seed = 42,
                                       const ParallelOptions& options = {}) {
  return lifetime_over_seeds(config, seeds, base_seed, options).mean();
}

/// Percentage formatting convention used in every table (paper reports
/// normalized lifetime in percent).
inline double pct(double normalized) { return 100.0 * normalized; }

}  // namespace nvmsec::bench
