// Online attack detection over the user write stream (ROADMAP: "Adaptive
// defenses and online attack detection").
//
// The detector watches the logical address stream through three cheap,
// multiset-invariant window statistics and folds them into a hysteresis-
// filtered alarm level the adaptive wear leveler (wearlevel/adaptive.h)
// consumes as its control signal:
//
//   * uniformity u = chi-square vs. uniform over a coarse bucket histogram,
//     normalized so natural i.i.d. traffic sits near 1. A UAA sweep packs
//     every bucket to within one write of its expectation — u collapses
//     toward 0, an "unnaturally even" signature no benign workload emits.
//   * occupancy = fraction of fine address-range buckets touched during the
//     window. Concentration attacks (BPA bursts, hotspot hammering) touch a
//     handful of distinct lines per window; benign zipf traffic scatters
//     across thousands.
//   * sequential fraction = share of writes whose address is exactly the
//     predecessor plus one. A sweep is contiguous even when it is slower
//     than one window per pass (where the chi-square alone would miss it).
//
// All three are computed from per-bucket counters that can be fed three
// ways — one address at a time, as an AttackRun (stride-0 or stride-1 runs
// update bucket ranges analytically, keeping the batched fast path O(1)
// per run), or as a WriteCountVector chunk — and the per-write and run
// forms produce *identical* counters for the same write sequence, so
// bit-identical attacks keep byte-identical event logs across fastpath
// on/off. Windows close at absolute multiples of `window_writes` on the
// engine's user-write clock; the engine caps batches at the boundary the
// same way it does for checkpoints and snapshots, which is what makes
// alarm transitions land at identical write counts at any --jobs and
// across crash/resume (state rides the engine checkpoint via save_state).
#pragma once

#include <cstdint>
#include <vector>

#include "util/multinomial.h"
#include "util/sketch.h"
#include "util/status.h"

namespace nvmsec {

class StateWriter;
class StateReader;

/// Hysteresis-filtered alarm level. kSuspicious is the one-window
/// intermediate on the way up; a single normal window drops it back to
/// benign, so transient bursts never reach the escalation policy.
enum class AlarmLevel : std::uint8_t {
  kBenign = 0,
  kSuspicious = 1,
  kUnderAttack = 2,
};

/// What kind of anomaly the detector believes it is seeing. The adaptive
/// policy steers in *opposite directions* for the two kinds: a sweep feeds
/// on remap overhead (lengthen the interval), a concentration attack feeds
/// on dwell time (shorten it).
enum class AttackKind : std::uint8_t {
  kNone = 0,
  kSweep = 1,
  kConcentration = 2,
};

const char* alarm_level_name(AlarmLevel level);
const char* attack_kind_name(AttackKind kind);

struct DetectorParams {
  /// User writes per detection window. Batches are capped at window
  /// boundaries, so smaller windows detect faster but shave the fast path.
  std::uint64_t window_writes{16384};
  /// Coarse histogram resolution for the chi-square statistic (clamped to
  /// the logical space). Keep window_writes / coarse_buckets well above 1
  /// so the normalized statistic concentrates near 1 for i.i.d. traffic.
  std::uint32_t coarse_buckets{64};
  /// Fine histogram resolution for the occupancy statistic.
  std::uint32_t fine_buckets{1024};
  /// Window is sweep-anomalous when u < this (too uniform to be natural)...
  double sweep_uniformity_max{0.25};
  /// ...or when the sequential fraction exceeds this (contiguous sweep).
  double sweep_sequential_min{0.60};
  /// Window is concentration-anomalous when occupancy falls below this.
  double concentration_occupancy_max{0.15};
  /// Consecutive anomalous windows before kUnderAttack is declared.
  std::uint32_t raise_windows{2};
  /// Consecutive normal windows before an alarm clears back to kBenign.
  std::uint32_t clear_windows{4};
};

/// Everything one window close decided, for event emission and tests.
struct WindowVerdict {
  std::uint64_t window_index{0};
  std::uint64_t writes{0};
  double uniformity{0};
  double occupancy{0};
  double sequential{0};
  bool anomalous{false};
  /// Kind of *this window's* anomaly (kNone for a normal window).
  AttackKind kind{AttackKind::kNone};
  AlarmLevel level_before{AlarmLevel::kBenign};
  AlarmLevel level_after{AlarmLevel::kBenign};
};

class AttackDetector {
 public:
  AttackDetector(const DetectorParams& params, std::uint64_t logical_lines);

  // --- observation (user writes only; overhead writes are invisible to an
  // attacker-facing monitor and are not fed in) -----------------------------
  void observe(std::uint64_t addr, std::uint64_t count = 1);
  /// Analytic form of `count` observe() calls at start, start+stride, ...:
  /// stride 0 is a single bucket add, stride 1 a bucket range add. Produces
  /// exactly the counters the per-write calls would.
  void observe_run(std::uint64_t start, std::uint64_t count,
                   std::uint64_t stride);
  /// Count-vector chunks are unordered multisets: buckets update per entry
  /// and the sequential tracker resets (adjacency is meaningless across a
  /// multinomial draw) — consistent with the distribution-equivalent
  /// contract those chunks already run under.
  void observe_counts(const WriteCountVector& counts);

  // --- window clock --------------------------------------------------------
  [[nodiscard]] bool window_due(std::uint64_t user_writes) const {
    return user_writes >= next_window_at_;
  }
  /// Batch cap: user writes until the next window boundary.
  [[nodiscard]] std::uint64_t writes_until_window(
      std::uint64_t user_writes) const {
    return user_writes >= next_window_at_ ? 0 : next_window_at_ - user_writes;
  }
  /// Close the current window: compute the signals, step the hysteresis
  /// state machine, fold the signals into the running summaries, reset the
  /// window counters, and advance the boundary.
  WindowVerdict close_window();

  // --- state ---------------------------------------------------------------
  [[nodiscard]] AlarmLevel level() const { return level_; }
  /// Kind of the active alarm (kNone unless suspicious/under attack).
  [[nodiscard]] AttackKind kind() const { return active_kind_; }
  [[nodiscard]] const DetectorParams& params() const { return params_; }

  // --- lifetime statistics (LifetimeResult / fleet aggregation) ------------
  [[nodiscard]] std::uint64_t windows_closed() const { return windows_closed_; }
  [[nodiscard]] std::uint64_t anomalous_windows() const {
    return anomalous_windows_;
  }
  [[nodiscard]] std::uint64_t alarms_raised() const { return alarms_raised_; }
  [[nodiscard]] std::uint64_t windows_in_alarm() const {
    return windows_in_alarm_;
  }
  /// Per-window signal distributions over the whole run (mergeable, so the
  /// fleet layer can aggregate them across devices).
  [[nodiscard]] const StreamSummary& uniformity_summary() const {
    return uniformity_summary_;
  }
  [[nodiscard]] const StreamSummary& occupancy_summary() const {
    return occupancy_summary_;
  }

  void reset();
  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

 private:
  void bucket_add(std::uint64_t addr, std::uint64_t count);
  void range_add(std::vector<std::uint64_t>& counts, std::uint64_t start,
                 std::uint64_t end);

  DetectorParams params_;
  std::uint64_t logical_lines_;

  // Current-window accumulators.
  std::vector<std::uint64_t> coarse_;
  std::vector<std::uint64_t> fine_;
  std::uint64_t window_total_{0};
  std::uint64_t seq_steps_{0};
  std::uint64_t last_addr_{0};
  bool have_last_{false};
  std::uint64_t next_window_at_;

  // Hysteresis state machine.
  AlarmLevel level_{AlarmLevel::kBenign};
  AttackKind active_kind_{AttackKind::kNone};
  std::uint32_t consecutive_anomalous_{0};
  std::uint32_t consecutive_normal_{0};

  // Lifetime statistics.
  std::uint64_t windows_closed_{0};
  std::uint64_t anomalous_windows_{0};
  std::uint64_t alarms_raised_{0};
  std::uint64_t windows_in_alarm_{0};
  StreamSummary uniformity_summary_;
  StreamSummary occupancy_summary_;
};

}  // namespace nvmsec
