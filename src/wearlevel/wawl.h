// WAWL: endurance-variation-aware wear leveling after Zhou et al.,
// "Increasing Lifetime and Security of Phase-Change Memory with Endurance
// Variation" (ICPADS'16) — the strongest wear-leveling baseline in the
// paper's Figs. 7-8.
//
// Quoting the paper's summary (§2.2.1): "WAWL associates the chosen
// probability of each region and the swapping interval with [the] endurance
// metric of the region." We implement both couplings:
//   * destination choice: remap victims are sampled with probability
//     proportional to group endurance^alpha (fine granularity), and
//   * dwell time: a line placed on a strong group stays there longer — the
//     per-address swap countdown is scaled by the hosting group's
//     normalized endurance.
// Together these make long-run per-line write rates track endurance, so all
// lines approach wear-out together — the best case for lifetime.
#pragma once

#include <memory>
#include <vector>

#include "util/alias_table.h"
#include "wearlevel/permutation_base.h"

namespace nvmsec {

class Wawl final : public PermutationWearLeveler {
 public:
  Wawl(std::uint64_t working_lines, const EnduranceView& endurance,
       std::uint64_t group_lines, std::uint64_t base_interval, double alpha);

  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override;

  [[nodiscard]] std::string name() const override { return "wawl"; }

  /// Writes to `la` before the one that ends its dwell and swaps it: its
  /// countdown less one, or for a fresh line its slot's budget less one.
  [[nodiscard]] std::uint64_t writes_until_remap_at(
      LogicalLineAddr la) const override;
  void commit_batched_writes_at(LogicalLineAddr la, std::uint64_t k) override;

  [[nodiscard]] std::uint64_t remap_interval() const override {
    return base_interval_;
  }
  /// Changes the dwell budget granted to FUTURE placements; outstanding
  /// countdowns keep the budget they were assigned, so the new cadence
  /// phases in as lines hit their next swap.
  bool set_remap_interval(std::uint64_t interval) override;

  /// Dwell budget granted when data lands on `working_index`.
  [[nodiscard]] std::uint32_t dwell_budget(std::uint64_t working_index) const {
    return budget_[working_index / group_lines_];
  }

 private:
  void reset_policy() override;
  void save_policy(StateWriter& w) const override { w.vec_u32(countdown_); }
  [[nodiscard]] Status load_policy(StateReader& r) override {
    std::vector<std::uint32_t> countdown;
    if (Status st = r.vec_u32(countdown); !st.ok()) return st;
    if (countdown.size() != countdown_.size()) {
      return Status::corruption("wawl state: countdown size mismatch");
    }
    countdown_ = std::move(countdown);
    return Status{};
  }
  [[nodiscard]] std::uint64_t sample_victim(Rng& rng) const;
  /// Fill budget_ from dwell_weight_ at the current base interval.
  void rebuild_budgets();

  std::uint64_t group_lines_;
  std::uint64_t base_interval_;
  /// Per group, (normalized endurance)^alpha: the victim-choice weight and
  /// the factor scaling the base interval into a dwell budget.
  std::vector<double> dwell_weight_;
  /// Per group, the dwell budget, at least 1 and clamped to the countdown
  /// width.
  std::vector<std::uint32_t> budget_;
  std::unique_ptr<AliasTable> group_sampler_;
  /// Remaining dwell writes per logical line; 0 means "assign on next write".
  std::vector<std::uint32_t> countdown_;
};

}  // namespace nvmsec
