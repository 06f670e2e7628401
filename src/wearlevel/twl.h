// TWL: Toss-up Wear Leveling (Zhang & Sun, DAC'17), cited by the paper as
// the scheme that "randomly maps writes between two bond blocks (a strong
// block and a weak block)" (§2.2.1).
//
// Groups are bonded pairwise, strongest with weakest (the same antitone
// idea Max-WE later applies to spare regions). Each logical line belongs to
// a bonded pair and its physical placement is re-tossed between the pair's
// two slots at a write cadence, with the toss biased toward the strong
// side in proportion to the pair's endurance imbalance. Wear within a pair
// then approaches the pair's combined endurance, but imbalance *across*
// pairs remains — which is why TWL sits between the oblivious schemes and
// WAWL in protection quality.
#pragma once

#include <vector>

#include "wearlevel/permutation_base.h"

namespace nvmsec {

class Twl final : public PermutationWearLeveler {
 public:
  /// Bonds groups of `group_lines` lines into strong/weak pairs; re-tosses
  /// a written line between its pair's slots every `interval` writes.
  Twl(std::uint64_t working_lines, const EnduranceView& endurance,
      std::uint64_t group_lines, std::uint64_t interval);

  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override;

  [[nodiscard]] std::string name() const override { return "twl"; }

  [[nodiscard]] std::uint64_t writes_until_remap() const override {
    return interval_ - writes_since_toss_ - 1;
  }
  void commit_batched_writes(std::uint64_t k) override {
    writes_since_toss_ += k;
  }

  [[nodiscard]] std::uint64_t remap_interval() const override {
    return interval_;
  }
  bool set_remap_interval(std::uint64_t interval) override {
    if (interval == 0) return false;
    interval_ = interval;
    writes_since_toss_ = std::min(writes_since_toss_, interval_ - 1);
    return true;
  }

  /// Bonded partner group of `group` (exposed for tests).
  [[nodiscard]] std::uint64_t bonded_group(std::uint64_t group) const {
    return bond_[group];
  }
  /// Probability that a toss lands a line on `group`'s side of its bond.
  [[nodiscard]] double stay_probability(std::uint64_t group) const {
    return stay_prob_[group];
  }

 private:
  void reset_policy() override { writes_since_toss_ = 0; }
  void save_policy(StateWriter& w) const override { w.u64(writes_since_toss_); }
  [[nodiscard]] Status load_policy(StateReader& r) override {
    return load_cadence_counter(r, interval_, writes_since_toss_, "twl");
  }

  std::uint64_t group_lines_;
  std::uint64_t interval_;
  std::uint64_t writes_since_toss_{0};
  /// group -> bonded partner group (an involution).
  std::vector<std::uint64_t> bond_;
  /// group -> probability that a tossed line stays/lands on this group
  /// (= group endurance / bonded-pair total endurance).
  std::vector<double> stay_prob_;
};

}  // namespace nvmsec
