// Spare-line replacement scheme interface (paper §2.2.3).
//
// A spare scheme decides (a) which physical lines form the *working set*
// that backs the attacker-visible address space, (b) how a working index is
// resolved to its current backing line after replacements, and (c) what
// happens when a backing line wears out. The device is declared dead the
// first time on_wear_out() cannot replace a line (§4.2: "If there are no
// spare lines ... the replacement procedure fails and the whole NVM device
// is worn out").
//
// resolve() is non-const because schemes with shared backing lines (PCD)
// repair stale mappings lazily on access.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nvm/endurance_map.h"
#include "obs/observer.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/types.h"

namespace nvmsec {

struct SpareSchemeStats {
  /// Distinct backing lines that wore out.
  std::uint64_t line_deaths{0};
  /// Successful redirects of a working index to a new backing line.
  std::uint64_t replacements{0};
  /// Unallocated spare lines remaining (0 for schemes without a pool).
  std::uint64_t spares_remaining{0};
  /// Max-WE only: populated entries in the line/region mapping tables.
  std::uint64_t lmt_entries{0};
  std::uint64_t rmt_entries{0};
};

class SpareScheme {
 public:
  virtual ~SpareScheme() = default;

  /// Number of lines backing the attacker-visible space at boot.
  [[nodiscard]] virtual std::uint64_t working_lines() const = 0;

  /// Boot-time physical line behind working index `idx`.
  [[nodiscard]] virtual PhysLineAddr working_line(std::uint64_t idx) const = 0;

  /// Current physical line behind working index `idx` (after replacements).
  virtual PhysLineAddr resolve(std::uint64_t idx) = 0;

  /// The line currently backing `idx` just wore out. Returns true if the
  /// scheme redirected `idx` to a replacement; false means device failure.
  virtual bool on_wear_out(std::uint64_t idx) = 0;

  /// Rescue counter: bumped on every change to the working-index ->
  /// backing-line mapping — replacements, lazy repairs (PCD's rehome),
  /// scrub rebuilds (Max-WE), reset, and state load. The engine does not
  /// read it; it is a cheap "did anything move" signal for instrumentation
  /// and tests.
  [[nodiscard]] std::uint64_t mapping_epoch() const { return mapping_epoch_; }

  /// True when one resolve() may serve consecutive writes to an index until
  /// its line wears out: the engine then resolves an entry of k writes once
  /// instead of k times. Opt in when resolve() does no per-call accounting;
  /// the mapping may still change at a wear-out, since the engine resolves
  /// again after every rescue. The default is false, the safe answer (one
  /// resolve per write). FREE-p stays false: its resolve() charges
  /// pointer-walk reads into checkpointed counters.
  [[nodiscard]] virtual bool resolve_cacheable() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual SpareSchemeStats stats() const = 0;

  /// Restore boot state (mappings, pools, death counters).
  virtual void reset() = 0;

  /// Re-target the scheme at a different endurance map, restoring boot
  /// state and re-deriving the boot-time allocation — the fleet runner's
  /// setup-amortization hook, so one scheme object serves many devices.
  /// An implementation must leave the scheme indistinguishable from one
  /// freshly constructed on `endurance` (consuming identical draws from
  /// `rng` if its construction samples any). Returns false when the scheme
  /// does not support rebinding (the default); the caller then constructs
  /// a fresh instance.
  virtual bool rebind(const std::shared_ptr<const EnduranceMap>& endurance,
                      Rng& rng) {
    (void)endurance;
    (void)rng;
    return false;
  }

  /// Attach observability sinks. The default is a no-op; schemes with
  /// interesting internal events (Max-WE's RMT redirects and spare-pool
  /// allocations) override it to emit trace events and counters.
  virtual void set_observer(const Observer& obs) { (void)obs; }

  /// Checkpointing: serialize every run-time-mutable field (mappings,
  /// pools, stats, internal RNGs) into `w`. The boot-time allocation is
  /// *not* saved — it is rebuilt deterministically from the config — so a
  /// scheme only writes what diverges from its freshly-constructed state.
  virtual void save_state(StateWriter& w) const { (void)w; }

  /// Restore what save_state wrote. Called on a freshly-built instance of
  /// the identical configuration; returns a structured error (and leaves
  /// the scheme unusable) on malformed input.
  [[nodiscard]] virtual Status load_state(StateReader& r) {
    (void)r;
    return Status{};
  }

 protected:
  void bump_mapping_epoch() { ++mapping_epoch_; }

 private:
  std::uint64_t mapping_epoch_{0};
};

std::unique_ptr<SpareScheme> make_no_spare(
    std::shared_ptr<const EnduranceMap> endurance);
std::unique_ptr<SpareScheme> make_pcd(
    std::shared_ptr<const EnduranceMap> endurance, std::uint64_t spare_lines,
    Rng& rng);
std::unique_ptr<SpareScheme> make_ps(
    std::shared_ptr<const EnduranceMap> endurance, std::uint64_t spare_lines,
    Rng& rng);
std::unique_ptr<SpareScheme> make_ps_worst(
    std::shared_ptr<const EnduranceMap> endurance, std::uint64_t spare_lines,
    Rng& rng);

}  // namespace nvmsec
