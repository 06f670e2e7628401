// Attack model interface (paper §3).
//
// NVMsim "generates the read/write requests according to the attack models,
// thus avoiding reading memory requests from the workload files" (§5.1) —
// an attack is therefore just a generator of logical line addresses. The
// address space bound is passed per call because some spare schemes (PCD)
// shrink the usable space as lines fail.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/multinomial.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/types.h"

namespace nvmsec {

/// RNG-stream contract: how an attack's batched draws relate to the exact
/// per-write address stream. This is a *declared* property the equivalence
/// test enforces — the engine uses it to decide which batching paths are
/// legal, and the fleet fingerprint uses it to refuse resume across runs
/// whose sampling contracts are incompatible.
enum class BatchContract : std::uint8_t {
  /// Batched runs replay the per-write stream exactly: same addresses, same
  /// order, same RNG consumption (UAA sweeps, BPA bursts). Fastpath
  /// and per-write runs are byte-identical end to end.
  kBitIdentical = 0,
  /// next_counts() emits deterministically the same per-line write totals
  /// the per-write stream would issue over the chunk, but the engine may
  /// apply them out of order within the chunk (hotspot's round-robin). No
  /// RNG involved; cross-mode results agree up to within-chunk reordering.
  kMultisetExact = 1,
  /// next_counts() draws a Multinomial(chunk; p) count vector over the same
  /// stationary per-line distribution the per-write stream samples, from a
  /// dedicated substream (zipf, random). Fastpath and per-write runs are
  /// equal in distribution — lifetime/wear statistics match within sampling
  /// noise — and each mode is independently reproducible from the seed, but
  /// trajectories are not bit-comparable across modes.
  kDistributionEquivalent = 2,
};

/// Canonical token for JSON output ("bit_identical", "multiset_exact",
/// "distribution_equivalent").
const char* batch_contract_name(BatchContract contract);

/// Contract of the attack registered under `name` in make_attack (plus
/// "zipf", which experiment configs construct directly). Throws
/// std::invalid_argument for unknown names.
BatchContract attack_batch_contract(const std::string& name);

/// A run of consecutive writes emitted as one unit by Attack::next_run:
/// `count` writes starting at `start`, with logical addresses advancing by
/// `stride` per write. stride 0 repeats one address (a BPA burst segment);
/// stride 1 sweeps sequentially (a UAA sweep segment).
struct AttackRun {
  LogicalLineAddr start{LogicalLineAddr::invalid()};
  std::uint64_t count{1};
  std::uint64_t stride{0};

  [[nodiscard]] LogicalLineAddr addr_at(std::uint64_t i) const {
    return LogicalLineAddr{start.value() + i * stride};
  }
};

class Attack {
 public:
  virtual ~Attack() = default;

  /// Produce the next logical address to write, strictly < user_lines.
  virtual LogicalLineAddr next(Rng& rng, std::uint64_t user_lines) = 0;

  /// Batched form of next(): emit up to `max_len` (>= 1) upcoming writes in
  /// one run. The contract is strict bit-equivalence with the per-write
  /// path — consuming a run of length n must leave the attack state *and*
  /// the RNG stream exactly as n successive next() calls would, and every
  /// address in the run must be strictly < user_lines. Attacks whose
  /// addresses are a deterministic function of their cursor (UAA's sweep,
  /// BPA's burst remainder) override this to emit whole segments; attacks
  /// that draw per write (zipf, hotspot, random) keep this default so their
  /// RNG consumption is untouched.
  virtual AttackRun next_run(Rng& rng, std::uint64_t user_lines,
                             std::uint64_t max_len) {
    (void)max_len;
    return AttackRun{next(rng, user_lines), 1, 0};
  }

  /// Which equivalence class this attack's batched draws fall into. The
  /// engine only takes the count-vector path for contracts that allow it
  /// (anything but kBitIdentical) and only when next_counts() is overridden.
  [[nodiscard]] virtual BatchContract batch_contract() const {
    return BatchContract::kBitIdentical;
  }

  /// Count-vector form of the next `n_writes` writes: append (address,
  /// count) entries whose counts sum to exactly `n_writes`, every address
  /// strictly < user_lines. `rng` is the dedicated batched-sampling
  /// substream (NOT the simulation stream — the per-write RNG position is
  /// untouched by a counts draw). Distribution-equivalent attacks draw the
  /// multinomial from it; multiset-exact attacks ignore it. Returns false
  /// when the attack has no counts form (the default), in which case the
  /// engine falls back to next_run().
  virtual bool next_counts(Rng& rng, std::uint64_t user_lines,
                           std::uint64_t n_writes, WriteCountVector& out) {
    (void)rng;
    (void)user_lines;
    (void)n_writes;
    (void)out;
    return false;
  }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Restore the attack's initial state (e.g. UAA's sweep cursor).
  virtual void reset() = 0;

  /// Checkpointing: stateful attacks (sweep cursors, burst positions)
  /// serialize their position; stateless ones write nothing — all their
  /// randomness lives in the simulation Rng, which is saved separately.
  virtual void save_state(StateWriter& w) const { (void)w; }
  [[nodiscard]] virtual Status load_state(StateReader& r) {
    (void)r;
    return Status{};
  }
};

/// Named constructors for the attacks the paper evaluates, plus extras used
/// by tests and examples.
std::unique_ptr<Attack> make_uaa();
std::unique_ptr<Attack> make_bpa(std::uint64_t burst_length = 1024);
std::unique_ptr<Attack> make_hotspot(std::uint64_t working_set = 1);
std::unique_ptr<Attack> make_random_uniform();

/// Factory by name ("uaa", "bpa", "hotspot", "random"); throws
/// std::invalid_argument for unknown names.
std::unique_ptr<Attack> make_attack(const std::string& name);

}  // namespace nvmsec
