// Shared helpers for the figure/table reproduction benches.
//
// A bench submits its whole grid through run_over_seeds (sim/parallel.h),
// one batch: runs fan out across `--jobs` workers, results come back in
// input order, and the reduction happens on the calling thread — so a
// bench's numbers are bit-identical at any job count (see
// docs/architecture.md, "Threading model & determinism").
#pragma once

#include <cstddef>
#include <span>

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
