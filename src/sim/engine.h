// Stochastic request-level lifetime engine (the paper's "NVMsim" role).
//
// Drives the full pipeline per user write:
//   attack -> wear leveler (logical->working, + migration writes)
//          -> spare scheme (working index -> backing line)
//          -> device (wear accounting, wear-out events)
//          -> spare scheme replacement on wear-out
// and stops at the first wear-out the spare scheme cannot replace (§4.2's
// failure criterion) or at an optional write cap.
#pragma once

#include <string>

#include "attack/attack.h"
#include "cache/dram_buffer.h"
#include "detect/detector.h"
#include "fault/metadata_faults.h"
#include "nvm/device.h"
#include "obs/observer.h"
#include "sim/lifetime.h"
#include "spare/spare_scheme.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "wearlevel/adaptive.h"
#include "wearlevel/wear_leveler.h"

namespace nvmsec {

class MaxWe;

class Engine {
 public:
  /// All components are borrowed; the caller keeps them alive for the run.
  Engine(Device& device, Attack& attack, WearLeveler& wear_leveler,
         SpareScheme& spare_scheme, Rng& rng);

  /// Optional DRAM front buffer (§3.3.2): user writes that hit it are
  /// absorbed; evictions carry the data to the NVM. A workload whose
  /// footprint fits the buffer never wears the device, so runs with a
  /// buffer must set a write cap.
  void set_front_buffer(DramBuffer* buffer) { buffer_ = buffer; }

  /// Toggle the batched fast path (on by default; off is the per-write
  /// reference). Every device write of a run goes through one loop over
  /// (working index, count) entries, each resolved just before it is
  /// written; the fast path only changes where entries come from. With it
  /// on, an attack run's span within the wear leveler's static-mapping
  /// horizon (and before the next checkpoint / snapshot / fault boundary)
  /// becomes one entry per address instead of one on_write() per write.
  /// The equivalence guarantee is the attack's declared BatchContract: for
  /// bit-identical attacks (UAA, BPA) fastpath runs match the
  /// per-write reference exactly — same LifetimeResult, RNG stream,
  /// event-log bytes, checkpoint payloads. Stochastic attacks (zipf,
  /// random; hotspot with a multi-line working set) additionally take
  /// per-chunk multinomial count vectors from a dedicated substream on
  /// large chunks. Those runs are distribution-equivalent (multiset-exact
  /// for hotspot) to `--no-fastpath`, and each mode is independently
  /// reproducible and resumable from its own checkpoints.
  void set_fast_path(bool enabled) { fastpath_ = enabled; }

  /// Enable periodic checkpointing: every `interval` user writes the full
  /// engine + component state is serialized and atomically written to
  /// `path` as a one-record journal (sim/journal.h; temp file + rename, so
  /// a crash never leaves a torn file). `fingerprint` identifies the
  /// configuration and goes into the file header; resume refuses a
  /// checkpoint from a different config.
  void set_checkpointing(std::string path, WriteCount interval,
                         std::uint64_t fingerprint);

  /// Enable run-time metadata fault injection: `injector` is polled at
  /// every user-write boundary and, when due, flips a bit in `scheme`'s
  /// mapping tables and scrubs. Both are borrowed.
  void set_fault_injection(MetadataFaultInjector* injector, MaxWe* scheme);

  /// Attach the online attack detector (borrowed). The detector observes
  /// every user-write request (buffer-absorbed ones included — it watches
  /// the attacker-visible stream), batches are capped at its window
  /// boundaries, and windows close in the boundary block before fault
  /// injection and checkpoints, so detector state and alarm events land at
  /// identical write counts across --jobs, fastpath on/off (within the
  /// attack's batch contract) and crash/resume. `adaptive` (optional) is a
  /// non-owning alias of the run's wear leveler: when set, every window
  /// close feeds the alarm level into its escalation policy and
  /// cadence_change events are emitted for the retunes it applies.
  void set_detector(AttackDetector* detector, AdaptiveWearLeveler* adaptive);

  /// Restore mid-run state from a checkpoint payload (Engine::run resumes
  /// from the restored write counts). The caller has already validated the
  /// record CRC and the config fingerprint (Journal::read_snapshot); this
  /// reads the progress counters and every component's state in the fixed
  /// save order.
  [[nodiscard]] Status restore_state(StateReader& r);

  /// Run until device failure, or until `max_user_writes` user writes if
  /// non-zero. Callable once per component setup; reset the components to
  /// rerun. After restore_state(), continues from the checkpointed write
  /// counts — a resumed run is bit-identical to an uninterrupted one.
  LifetimeResult run(WriteCount max_user_writes = 0);

  /// Attach observability sinks: run-level counters and the run span go to
  /// metrics/trace, and the snapshot emitter is polled every user write.
  /// Also forwards to the device and spare scheme so their events flow to
  /// the same sinks. A default Observer restores the no-op mode.
  void set_observer(const Observer& obs);

 private:
  void save_checkpoint();
  void capture_state(StateWriter& w) const;

  /// Domain tag for the batched-sampling substream derivation.
  static constexpr std::uint64_t kCountsStreamTag = 0xBA7C4ED5A3B1E500ULL;

  Observer obs_{};
  Device& device_;
  Attack& attack_;
  WearLeveler& wl_;
  SpareScheme& spare_;
  Rng& rng_;
  /// Dedicated stream for count-vector draws, derived from the simulation
  /// RNG's seed position at construction (identically in fastpath and
  /// per-write modes, without advancing the main stream). Keeping the two
  /// streams separate is what lets bit-identical attacks stay bit-identical
  /// while stochastic attacks batch: the per-write RNG sequence is never
  /// perturbed by batched draws. Checkpointed alongside the main RNG so a
  /// resumed fastpath run continues the same counts sequence.
  Rng counts_rng_;
  DramBuffer* buffer_{nullptr};

  MetadataFaultInjector* injector_{nullptr};
  MaxWe* injector_scheme_{nullptr};

  AttackDetector* detector_{nullptr};
  AdaptiveWearLeveler* adaptive_{nullptr};

  std::string checkpoint_path_;
  WriteCount checkpoint_interval_{0};
  std::uint64_t fingerprint_{0};
  WriteCount next_checkpoint_at_{0};

  // Run progress; restored by restore_state() so a resumed run continues
  // the counters instead of starting from zero.
  WriteCount user_writes_{0};
  WriteCount absorbed_writes_{0};
  WriteCount overhead_writes_{0};
  std::uint64_t line_deaths_{0};
  bool resumed_{false};
  bool fastpath_{true};
};

}  // namespace nvmsec
