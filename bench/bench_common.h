// Shared helpers for the figure/table reproduction benches.
//
// A bench submits its whole grid through run_over_seeds, one
// sim/parallel.h batch: runs fan out across `--jobs` workers, results come
// back in input order, and the reduction happens on the calling thread —
// so a bench's numbers are bit-identical at any job count (see
// docs/architecture.md, "Threading model & determinism").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
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

/// Run every config over `seeds` seeds (base_seed, base_seed+1, ...) as
/// one run_experiments batch, so the whole grid shares the --jobs workers.
/// Returns runs[c][s]: config c at seed base_seed + s. Throws
/// std::invalid_argument when `seeds` is 0.
inline std::vector<std::vector<LifetimeResult>> run_over_seeds(
    std::span<const ExperimentConfig> configs, std::uint64_t seeds,
    std::uint64_t base_seed, const ParallelOptions& options) {
  if (seeds == 0) throw std::invalid_argument("--seeds must be at least 1");
  std::vector<ExperimentConfig> batch;
  batch.reserve(configs.size() * seeds);
  for (const ExperimentConfig& config : configs) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      batch.push_back(config);
      batch.back().seed = base_seed + s;
    }
  }
  const std::vector<LifetimeResult> results = run_experiments(batch, options);
  std::vector<std::vector<LifetimeResult>> runs;
  runs.reserve(configs.size());
  for (auto first = results.begin(); first != results.end();
       first += static_cast<std::ptrdiff_t>(seeds)) {
    runs.emplace_back(first, first + static_cast<std::ptrdiff_t>(seeds));
  }
  return runs;
}

/// Normalized lifetime over one config's seeds, reduced in seed order:
/// exact moments plus sketch percentiles, on the StreamSummary the fleet
/// aggregates use, so it is bit-identical at any job count.
inline StreamSummary summarize(std::span<const LifetimeResult> runs) {
  StreamSummary summary;
  for (const LifetimeResult& r : runs) summary.add(r.normalized);
  return summary;
}

/// Percentage formatting convention used in every table (paper reports
/// normalized lifetime in percent).
inline double pct(double normalized) { return 100.0 * normalized; }

}  // namespace nvmsec::bench
