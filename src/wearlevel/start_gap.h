// Start-Gap wear leveling (Qureshi et al., MICRO'09).
//
// One working slot is reserved as the "gap". Every `psi` user writes, the
// line adjacent to the gap is copied into it (one migration write) and the
// gap moves one slot backwards, so over N*psi writes every logical line
// shifts by one physical slot. The paper cites Start-Gap as the canonical
// endurance-variation-*oblivious* scheme that fails quickly under attack
// (§2.2.1); we ship it for completeness and for the attack regression tests.
#pragma once

#include <algorithm>

#include "wearlevel/permutation_base.h"

namespace nvmsec {

class StartGap final : public PermutationWearLeveler {
 public:
  StartGap(std::uint64_t working_lines, std::uint64_t psi);

  /// One slot is the roving gap, so the attacker sees one line fewer.
  [[nodiscard]] std::uint64_t logical_lines() const override {
    return working_lines_ - 1;
  }

  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override;

  [[nodiscard]] std::string name() const override { return "startgap"; }

  /// Writes left before the next gap move: on_write remaps when the
  /// pre-incremented counter reaches psi.
  [[nodiscard]] std::uint64_t writes_until_remap() const override {
    return psi_ - writes_since_move_ - 1;
  }
  void commit_batched_writes(std::uint64_t k) override {
    writes_since_move_ += k;
  }

  [[nodiscard]] std::uint64_t remap_interval() const override { return psi_; }
  bool set_remap_interval(std::uint64_t interval) override {
    if (interval == 0) return false;
    psi_ = interval;
    // Shrinking below the current counter fires the next gap move on the
    // next write; without the clamp writes_until_remap() would underflow.
    writes_since_move_ = std::min(writes_since_move_, psi_ - 1);
    return true;
  }

  /// Working index currently serving as the gap (exposed for tests).
  [[nodiscard]] std::uint64_t gap_slot() const { return gap_slot_; }

 private:
  void reset_policy() override;
  void save_policy(StateWriter& w) const override {
    w.u64(writes_since_move_);
    w.u64(gap_slot_);
  }
  [[nodiscard]] Status load_policy(StateReader& r) override {
    std::uint64_t since = 0, gap = 0;
    if (Status st = load_cadence_counter(r, psi_, since, "startgap");
        !st.ok()) {
      return st;
    }
    if (Status st = r.u64(gap); !st.ok()) return st;
    if (gap >= working_lines_) {
      return Status::corruption("startgap state: gap slot out of range");
    }
    writes_since_move_ = since;
    gap_slot_ = gap;
    return Status{};
  }

  std::uint64_t psi_;
  std::uint64_t writes_since_move_{0};
  std::uint64_t gap_slot_;
};

}  // namespace nvmsec
