// PCM-S (Seznec, "Towards phase change memory as a secure main memory",
// INRIA 2009) — the second "traditional secure wear-leveling scheme" in the
// paper's evaluation (§5.1).
//
// PCM-S protects against deterministic targeting by randomly re-pairing
// lines: at a fixed write cadence the controller picks a random line pair
// and exchanges their contents and mappings. Like TLSR it is
// endurance-oblivious — long-run placement is uniform — so the paper groups
// the two together and Fig. 8 indeed shows them within 0.1% of each other.
#pragma once

#include <algorithm>

#include "wearlevel/permutation_base.h"

namespace nvmsec {

class PcmS final : public PermutationWearLeveler {
 public:
  PcmS(std::uint64_t working_lines, std::uint64_t interval);

  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override;

  [[nodiscard]] std::string name() const override { return "pcms"; }

  [[nodiscard]] std::uint64_t writes_until_remap() const override {
    return interval_ - writes_since_swap_ - 1;
  }
  void commit_batched_writes(std::uint64_t k) override {
    writes_since_swap_ += k;
  }

  [[nodiscard]] std::uint64_t remap_interval() const override {
    return interval_;
  }
  bool set_remap_interval(std::uint64_t interval) override {
    if (interval == 0) return false;
    interval_ = interval;
    writes_since_swap_ = std::min(writes_since_swap_, interval_ - 1);
    return true;
  }

 private:
  void reset_policy() override { writes_since_swap_ = 0; }
  void save_policy(StateWriter& w) const override { w.u64(writes_since_swap_); }
  [[nodiscard]] Status load_policy(StateReader& r) override {
    return load_cadence_counter(r, interval_, writes_since_swap_, "pcms");
  }

  std::uint64_t interval_;
  std::uint64_t writes_since_swap_{0};
};

}  // namespace nvmsec
