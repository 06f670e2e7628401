// Wear-leveling module interface (Fig. 3's "Wear-Leveling Module").
//
// A wear leveler maintains a bijection between the attacker-visible logical
// line space and a *working index* space of the same (or one larger) size.
// The working index is an index into the spare scheme's working set, not a
// raw physical address — that lets the same wear-leveler implementations run
// under every spare-replacement scheme.
//
// The write path is expressed as a sequence of physical writes because
// remapping migrates data: "a remapping operation introduces extra writes to
// both lines to be remapped" (§3.3.1, Fig. 2). Those overhead writes wear
// the device exactly like user writes, which is precisely how UAA turns
// wear leveling against itself.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/types.h"

namespace nvmsec {

struct WlPhysWrite {
  std::uint64_t working_index;
  /// True for data-migration writes caused by remapping; false for the
  /// user's own write.
  bool is_overhead;
};

class WearLeveler {
 public:
  virtual ~WearLeveler() = default;

  /// Attacker-visible address-space size (Start-Gap reserves one slot, so
  /// this can be working_lines() - 1).
  [[nodiscard]] virtual std::uint64_t logical_lines() const = 0;

  /// Size of the working index space this leveler permutes over.
  [[nodiscard]] virtual std::uint64_t working_lines() const = 0;

  /// Read-path translation; does not advance any remap counters.
  [[nodiscard]] virtual std::uint64_t translate(LogicalLineAddr la) const = 0;

  /// Write path: appends the physical writes this user write causes —
  /// any remap-migration writes first, then the mapped user write last.
  virtual void on_write(LogicalLineAddr la, Rng& rng,
                        std::vector<WlPhysWrite>& out) = 0;

  /// writes_until_remap() returning this means the mapping never changes
  /// (the identity leveler).
  static constexpr std::uint64_t kNeverRemaps =
      std::numeric_limits<std::uint64_t>::max();

  /// Static-mapping horizon: how many upcoming on_write() calls are
  /// guaranteed to leave the logical->working mapping untouched, emit no
  /// migration writes, and draw nothing from the RNG — regardless of the
  /// addresses written. Over that horizon a batched engine may map writes
  /// through translate() alone and fast-forward the cadence afterwards via
  /// commit_batched_writes(). 0 declines batching; the default declines.
  /// Start-Gap, PCM-S, BWL and TWL count every write against one global
  /// cadence and answer it. TLSR and WAWL count per sub-region or per line,
  /// so no bound holds for every address: they keep this at 0 and answer
  /// only the per-address pair below.
  [[nodiscard]] virtual std::uint64_t writes_until_remap() const { return 0; }

  /// Fast-forward the remap cadence by `k` user writes that were issued
  /// without per-write on_write() calls. Only valid for
  /// k <= writes_until_remap() as observed before the batch; levelers that
  /// decline batching reject any commit.
  virtual void commit_batched_writes(std::uint64_t k) {
    if (k > 0) {
      throw std::logic_error("WearLeveler::commit_batched_writes: '" + name() +
                             "' does not support batched writes");
    }
  }

  /// Per-address horizon: like writes_until_remap(), but for upcoming
  /// writes that all go to `la` — the shape of a BPA burst. Levelers whose
  /// cadence is counted per sub-region (TLSR) or per line (WAWL) can answer
  /// this where the global horizon is 0. The default forwards to the
  /// address-oblivious horizon, which bounds every address.
  [[nodiscard]] virtual std::uint64_t writes_until_remap_at(
      LogicalLineAddr la) const {
    (void)la;
    return writes_until_remap();
  }

  /// Fast-forward the cadence by `k` writes, all to `la`, issued without
  /// on_write() calls. Only valid for k <= writes_until_remap_at(la) as
  /// observed before the batch. The default forwards to
  /// commit_batched_writes().
  virtual void commit_batched_writes_at(LogicalLineAddr la, std::uint64_t k) {
    (void)la;
    commit_batched_writes(k);
  }

  /// Remap counter: bumped whenever the logical->working mapping changes
  /// (any swap, gap move, reset, or state load). The engine does not read
  /// it; it counts remaps for instrumentation and tests. Virtual so a
  /// decorator (AdaptiveWearLeveler) can forward the wrapped leveler's
  /// count instead of carrying a stale counter of its own.
  [[nodiscard]] virtual std::uint64_t mapping_epoch() const {
    return mapping_epoch_;
  }

  /// Remap-cadence tuning surface for the adaptive defense layer. The
  /// current user-writes-per-remap interval, or 0 when the leveler has no
  /// tunable cadence (the identity leveler).
  [[nodiscard]] virtual std::uint64_t remap_interval() const { return 0; }

  /// Retune the remap cadence mid-run; returns false when the leveler has
  /// no tunable cadence. Implementations clamp their cadence counters so
  /// that shrinking the interval below the current counter triggers the
  /// next remap immediately instead of underflowing the
  /// writes_until_remap() horizon.
  virtual bool set_remap_interval(std::uint64_t interval) {
    (void)interval;
    return false;
  }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Total migration (overhead) writes emitted so far.
  [[nodiscard]] virtual WriteCount overhead_writes() const = 0;

  virtual void reset() = 0;

  /// Checkpointing: serialize every run-time-mutable field (the logical ->
  /// working permutation, remap cadence counters, policy state). Boot-time
  /// configuration is rebuilt from the experiment config, not saved.
  virtual void save_state(StateWriter& w) const { (void)w; }
  [[nodiscard]] virtual Status load_state(StateReader& r) {
    (void)r;
    return Status{};
  }

 protected:
  void bump_mapping_epoch() { ++mapping_epoch_; }

 private:
  std::uint64_t mapping_epoch_{0};
};

/// Tunables shared by the bundled wear levelers.
struct WearLevelerParams {
  /// User writes between remap steps (Start-Gap's psi; also the refresh /
  /// swap cadence of TLSR, PCM-S, BWL and the base interval of WAWL).
  std::uint64_t swap_interval{100};
  /// Group size (lines) used by the region-granular levelers (BWL, WAWL).
  /// 0 means "derive from working size": working_lines / 128, at least 1.
  std::uint64_t group_lines{0};
  /// TLSR inner sub-region size in lines. A hammered line absorbs at most
  /// subregion_lines * swap_interval writes between remaps, so scaled-down
  /// configurations must shrink this together with the endurance scale.
  std::uint64_t tlsr_subregion_lines{256};
};

/// Number of endurance classes BWL quantizes regions into.
inline constexpr std::uint32_t kBwlClasses = 4;
/// BWL: victim-class weight is (class mean endurance)^beta. Sub-linear:
/// per-line wear rate then grows like e^beta, which lifts weak lines'
/// lifetimes while keeping wear-outs endurance-ordered.
inline constexpr double kBwlBeta = 0.5;
/// WAWL: both the destination-choice weight and the dwell budget scale with
/// endurance^alpha, so the per-line wear rate grows like e^(2*alpha). This
/// keeps the combined exponent at 0.7 — proportional enough to clearly
/// beat BWL, sub-linear enough that death order stays endurance-ordered
/// (see DESIGN.md §4).
inline constexpr double kWawlAlpha = 0.35;

/// Per-working-index endurance view handed to endurance-aware levelers
/// (BWL, WAWL). Endurance-oblivious schemes ignore it.
using EnduranceView = std::vector<double>;

/// Factory: name is one of "none", "startgap", "tlsr", "pcms", "bwl",
/// "wawl", "twl". Throws std::invalid_argument for unknown names.
std::unique_ptr<WearLeveler> make_wear_leveler(const std::string& name,
                                               std::uint64_t working_lines,
                                               const EnduranceView& endurance,
                                               const WearLevelerParams& params,
                                               Rng& rng);

/// The four schemes the paper evaluates in Figs. 7-8, in paper order.
const std::vector<std::string>& paper_wear_levelers();

}  // namespace nvmsec
