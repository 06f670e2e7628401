// parallel_for: the one fan-out primitive behind every batch of independent
// runs — sweeps and multi-bank modules (sim/parallel.h) and fleet shards
// (sim/fleet.h) — at every thread count.
//
// Design constraints, in order:
//   1. Determinism lives above it. Indices are claimed dynamically, so which
//      thread runs which index is unspecified; callers that need ordered
//      results index into a pre-sized output array and reduce on their own
//      thread.
//   2. Exceptions never vanish and never cut a batch short: every index is
//      attempted, then the exception of the smallest failing index is
//      rethrown (so which exception wins is deterministic even though
//      scheduling is not).
//   3. One code path: with one thread the caller runs the indices in
//      ascending order and no thread is spawned; with more, helpers claim
//      from the same counter and are joined before the call returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace nvmsec {

/// Busy time of one thread in one parallel_for call: how long it spent
/// inside fn() and how many indices it claimed. Idle time is the section
/// wall time minus busy_ns; the profiler's utilization report derives
/// worker imbalance from exactly this.
struct WorkerUtilization {
  std::uint64_t busy_ns{0};
  std::uint64_t tasks{0};
};

/// Run fn(i, thread) for i = 0, ..., n-1 on the calling thread plus
/// `threads - 1` helper threads (`threads` is capped at n; 0 counts as 1)
/// and return once all have finished and the helpers are joined. `thread`
/// is the running thread's slot in [0, min(threads, n)), the caller's
/// being 0, so per-thread state (a fleet worker's ExperimentWorkspace) can
/// live in a plain array indexed by it. Indices are claimed from one
/// atomic counter, so long and short items interleave without static
/// partitioning skew. If any invocations throw, the exception from the
/// smallest failing index is rethrown after every index has been
/// attempted. When `utilization` is non-null it receives one entry per
/// thread slot, each written only by its own thread; the join publishes
/// them.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::vector<WorkerUtilization>* utilization = nullptr);

/// max(1, std::thread::hardware_concurrency()) — what `jobs = 0` resolves
/// to everywhere a caller says "use all cores".
std::size_t hardware_workers();

}  // namespace nvmsec
