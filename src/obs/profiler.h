// Profiler: low-overhead, hierarchical, aggregating self-profiler.
//
// Where the TraceWriter records *every* event (and caps at 1M of them), the
// profiler keeps one fixed-size accumulator per phase — count, total, min
// and max nanoseconds on a steady clock — so it can stay attached to the
// hottest loops for billions of writes without allocating or doing any
// per-event I/O. Phases form a static hierarchy (engine.counts.draw under
// engine.run under fleet.device under fleet.shard); renderers attach each
// observed phase to its nearest *observed* ancestor so the same taxonomy
// serves a standalone engine run (engine.run is a root) and a fleet
// campaign (engine.run nests under fleet.device).
//
// Concurrency model: a Profiler is single-threaded by design. Parallel
// runners give every task its own instance and merge them on the join
// thread — merge() is associative and commutative (sums, min-of-min,
// max-of-max), so the merged result is deterministic regardless of
// completion order as long as the merge order is fixed.
//
// Determinism contract: the profiler reads the steady clock and nothing
// else — no RNG, no I/O, no simulation state. Attaching it cannot change
// event logs, checkpoints or fleet results by a single byte; only the
// profile JSON itself is wall-clock-dependent and therefore excluded from
// every byte-identity gate.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_pool.h"

namespace nvmsec {

/// Fixed phase taxonomy. Adding a phase means adding an enum entry plus a
/// row in kProfPhaseInfo (profiler.cpp keeps them in sync with a
/// static_assert).
enum class ProfPhase : std::uint8_t {
  kExperimentSetup = 0,  // map build, scheme/attack/WL construction
  kEngineRun,            // Engine::run end to end
  kEngineCountsDraw,     // multinomial attack draw (next_counts)
  kEngineCountsWrite,    // one count vector through the write loop
  kEngineBatchDraw,      // run-length attack draw (next_run)
  kEngineBatchWrite,     // one attack run through the write loop
  kEnginePerWrite,       // one write of the --no-fastpath reference
  kEngineBuffer,         // DRAM-buffer hit handling and evict write-back
  kEngineRescue,         // wear-out handling: spare rescue + death metrics
  kEngineDetector,       // detector window close (feature extraction)
  kEngineCheckpoint,     // checkpoint serialization + atomic write
  kEngineSnapshot,       // wear-snapshot emission
  kEventRun,             // UniformEventSimulator::run end to end
  kEventRescue,          // event-sim re-home loop per line death
  kEventSchedule,        // event-sim budgets, reverse map and queue build
  kEventWearGini,        // event-sim final wear settle and utilization Gini
  kBitRun,               // BitEngine::run end to end
  kFleetShard,           // one shard: device loop, compress, journal record
  kFleetDevice,          // one device's run_experiment inside a shard
  kFleetCheckpoint,      // fleet journal append after a shard lands
  kFleetFold,            // in-order fold of landed shards before the join
  kFleetMerge,           // fold of the shards left after the join
  kCount,
};

inline constexpr std::size_t kProfPhaseCount =
    static_cast<std::size_t>(ProfPhase::kCount);

/// Monotonic event counters that ride along with the phase timers: cheap
/// enough to stay on even where a timer would not be.
enum class ProfCounter : std::uint8_t {
  kBufferHit = 0,        // DRAM-buffer write hits
  kBufferMiss,
  kBufferEvict,          // evictions written back to the device
  kCountsChunks,         // multinomial count-vector chunks issued
  kCountsWrites,         // user writes issued through the counts path
  kBatchRuns,            // horizon-bounded spans of attack runs
  kBatchWrites,          // user writes issued through those spans
  kPerWriteFallback,     // user writes issued one by one through on_write
  kDetectorWindows,      // detector windows closed
  kRescueEvents,         // wear-outs handled (spare rescues attempted)
  kCount,
};

inline constexpr std::size_t kProfCounterCount =
    static_cast<std::size_t>(ProfCounter::kCount);

/// Dotted phase name, e.g. "engine.counts.draw".
[[nodiscard]] std::string_view prof_phase_name(ProfPhase phase);

/// Static parent in the taxonomy; ProfPhase::kCount means root. Renderers
/// should walk parents until they hit a phase that was actually observed
/// (count > 0) and treat the phase as a root when none was.
[[nodiscard]] ProfPhase prof_phase_parent(ProfPhase phase);

/// Counter name, e.g. "batch.writes".
[[nodiscard]] std::string_view prof_counter_name(ProfCounter counter);

/// One phase's accumulator. min_ns is kEmptyMin until the first record so
/// merge() of an empty cell is the identity.
struct ProfPhaseStats {
  static constexpr std::uint64_t kEmptyMin = ~std::uint64_t{0};

  std::uint64_t count{0};
  std::uint64_t total_ns{0};
  std::uint64_t min_ns{kEmptyMin};
  std::uint64_t max_ns{0};

  void record(std::uint64_t ns) {
    ++count;
    total_ns += ns;
    if (ns < min_ns) min_ns = ns;
    if (ns > max_ns) max_ns = ns;
  }

  void merge(const ProfPhaseStats& other) {
    count += other.count;
    total_ns += other.total_ns;
    if (other.min_ns < min_ns) min_ns = other.min_ns;
    if (other.max_ns > max_ns) max_ns = other.max_ns;
  }
};

class Profiler {
 public:
  [[nodiscard]] static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Open a phase; returns true when this is the outermost activation
  /// (re-entrant inner scopes are counted into the outer span, not twice).
  bool enter(ProfPhase phase) {
    return depth_[static_cast<std::size_t>(phase)]++ == 0;
  }

  /// Close a phase opened by enter(). Records only the outermost span.
  void leave(ProfPhase phase, bool outer, std::uint64_t start_ns) {
    --depth_[static_cast<std::size_t>(phase)];
    if (outer) {
      phases_[static_cast<std::size_t>(phase)].record(now_ns() - start_ns);
    }
  }

  /// Record an externally timed span (for call sites that cannot hold a
  /// scope open, e.g. accumulate-then-flush loops).
  void record(ProfPhase phase, std::uint64_t ns, std::uint64_t spans = 1) {
    auto& cell = phases_[static_cast<std::size_t>(phase)];
    cell.count += spans;
    cell.total_ns += ns;
    if (spans > 0) {
      if (ns < cell.min_ns) cell.min_ns = ns;
      if (ns > cell.max_ns) cell.max_ns = ns;
    }
  }

  void add(ProfCounter counter, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(counter)] += n;
  }

  [[nodiscard]] const ProfPhaseStats& phase(ProfPhase p) const {
    return phases_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t counter(ProfCounter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }

  /// Fold another profiler's accumulators into this one. Associative and
  /// commutative; parallel runners call this on the join thread in a fixed
  /// order. Worker utilization is appended in call order.
  void merge(const Profiler& other);

  /// Attach per-thread busy time from a parallel_for section. `wall_ns` is
  /// the section's wall time (the denominator for utilization); repeated
  /// calls append workers and sum wall time (sections run back to back).
  void set_utilization(const std::vector<WorkerUtilization>& workers,
                       std::uint64_t wall_ns);

  [[nodiscard]] const std::vector<WorkerUtilization>& workers() const {
    return workers_;
  }
  [[nodiscard]] std::uint64_t utilization_wall_ns() const {
    return utilization_wall_ns_;
  }

  /// Sum of total_ns over phases whose static ancestors were all
  /// unobserved — i.e. the spans a renderer would place at the root. This
  /// is the numerator of the "attributed fraction of wall time" gate.
  [[nodiscard]] std::uint64_t attributed_root_ns() const;

  /// Serialize to the versioned profile JSON document (schema v1). Only
  /// observed phases and nonzero counters are emitted; key order follows
  /// the enum, so the layout is stable run to run even though the timings
  /// are not. `wall_ns` is the caller-measured wall time of whatever the
  /// profile covers (one run, one campaign).
  [[nodiscard]] std::string to_json(std::uint64_t wall_ns) const;

 private:
  std::array<ProfPhaseStats, kProfPhaseCount> phases_{};
  std::array<std::uint32_t, kProfPhaseCount> depth_{};
  std::array<std::uint64_t, kProfCounterCount> counters_{};
  std::vector<WorkerUtilization> workers_;
  std::uint64_t utilization_wall_ns_{0};
};

/// RAII phase scope. With a null profiler the constructor and destructor
/// are each a single predictable branch — no clock reads, no stores beyond
/// the members — preserving the obs layer's zero-cost no-op contract.
class ScopedProfPhase {
 public:
  ScopedProfPhase(Profiler* profiler, ProfPhase phase) : profiler_(profiler) {
    if (profiler_ != nullptr) {
      phase_ = phase;
      outer_ = profiler_->enter(phase);
      if (outer_) start_ns_ = Profiler::now_ns();
    }
  }
  ~ScopedProfPhase() {
    if (profiler_ != nullptr) profiler_->leave(phase_, outer_, start_ns_);
  }

  ScopedProfPhase(const ScopedProfPhase&) = delete;
  ScopedProfPhase& operator=(const ScopedProfPhase&) = delete;

 private:
  Profiler* profiler_;
  ProfPhase phase_{ProfPhase::kCount};
  bool outer_{false};
  std::uint64_t start_ns_{0};
};

// The scope must stay register-friendly: a pointer, a packed phase/flag
// word and a timestamp. Growing it means a hot-loop spill.
static_assert(sizeof(ScopedProfPhase) <= 3 * sizeof(void*),
              "ScopedProfPhase must stay within three machine words");

}  // namespace nvmsec
