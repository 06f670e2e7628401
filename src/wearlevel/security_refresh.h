// TLSR: Two-Level Security Refresh (Seong et al., ISCA'10), one of the two
// "traditional secure wear-leveling schemes" the paper evaluates (§5.1).
//
// Security Refresh continuously re-randomizes the logical-to-physical
// mapping so an attacker cannot keep hitting the same physical line. We
// model its observable wear behaviour: the space is split into sub-regions
// (the two-level structure), each with its own refresh pointer and XOR key.
// Every `interval` writes *into a sub-region*, that sub-region performs one
// refresh step: the line under its pointer is swapped with its key-selected
// partner (two migration writes). Heavily written sub-regions therefore
// refresh faster — Seong's write-triggered refresh — and a hammered line
// absorbs at most subregion_lines * interval writes before it is moved.
//
// The scheme is endurance-OBLIVIOUS: placement is uniform, so under attack
// the weakest lines still receive the average write rate — which is exactly
// why the paper's Fig. 7/8 show it trailing the endurance-aware schemes.
#pragma once

#include <vector>

#include "wearlevel/permutation_base.h"

namespace nvmsec {

class SecurityRefresh final : public PermutationWearLeveler {
 public:
  /// `interval`: user writes per refresh step. `subregions`: number of
  /// independently swept sub-regions (the paper's two-level structure);
  /// working_lines must be divisible by it.
  SecurityRefresh(std::uint64_t working_lines, std::uint64_t interval,
                  std::uint64_t subregions, Rng& rng);

  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override;

  [[nodiscard]] std::string name() const override { return "tlsr"; }

  /// Writes to `la` that neither level's counter in its sub-region turns
  /// into a step: both counters still have room for each of them.
  [[nodiscard]] std::uint64_t writes_until_remap_at(
      LogicalLineAddr la) const override;
  void commit_batched_writes_at(LogicalLineAddr la, std::uint64_t k) override;

  [[nodiscard]] std::uint64_t remap_interval() const override {
    return interval_;
  }
  bool set_remap_interval(std::uint64_t interval) override;

 private:
  void reset_policy() override;
  void save_policy(StateWriter& w) const override {
    w.vec_u64(writes_since_step_);
    w.vec_u64(writes_since_outer_);
    w.vec_u64(sweep_);
    w.vec_u64(key_);
  }
  [[nodiscard]] Status load_policy(StateReader& r) override;
  /// Writes a sub-region absorbs between outer-level migrations.
  [[nodiscard]] std::uint64_t outer_quota() const {
    return interval_ * lines_per_subregion_;
  }
  void refresh_step(std::uint64_t subregion, Rng& rng,
                    std::vector<WlPhysWrite>& out);
  void outer_swap(std::uint64_t subregion, Rng& rng,
                  std::vector<WlPhysWrite>& out);

  std::uint64_t interval_;
  std::uint64_t subregions_;
  std::uint64_t lines_per_subregion_;
  /// Per-subregion write counter since the last refresh step.
  std::vector<std::uint64_t> writes_since_step_;
  /// Per-subregion write counter since the last outer-level migration.
  std::vector<std::uint64_t> writes_since_outer_;
  /// Per-subregion sweep pointer (offset within the sub-region).
  std::vector<std::uint64_t> sweep_;
  /// Per-subregion XOR key selecting the swap partner for this sweep round.
  std::vector<std::uint64_t> key_;
};

}  // namespace nvmsec
