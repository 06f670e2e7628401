// BWL: endurance-variation-aware wear leveling after Yun et al., "Dynamic
// Wear Leveling for Phase-change Memories with Endurance Variations"
// (TVLSI'15), as evaluated by the paper in Figs. 7-8.
//
// BWL knows the manufacture-time endurance map, but only coarsely: regions
// are quantized into a small number of endurance *classes*. At a fixed
// write cadence the just-written line is re-placed onto a victim line whose
// class is chosen with probability proportional to the class's aggregate
// (quantized) endurance. Placement rate therefore tracks endurance between
// classes but is blind within a class — which is why BWL lands between the
// oblivious schemes (TLSR/PCM-S) and the fine-grained WAWL in the paper's
// results.
#pragma once

#include <memory>
#include <vector>

#include "util/alias_table.h"
#include "wearlevel/permutation_base.h"

namespace nvmsec {

class Bwl final : public PermutationWearLeveler {
 public:
  /// `endurance`: per-working-index endurance view (manufacture-time map).
  /// `group_lines`: granularity at which endurance is known; `classes`:
  /// quantization coarseness.
  Bwl(std::uint64_t working_lines, const EnduranceView& endurance,
      std::uint64_t group_lines, std::uint32_t classes, std::uint64_t interval,
      double beta);

  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override;

  [[nodiscard]] std::string name() const override { return "bwl"; }

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

  /// Quantized class index of a working group (exposed for tests).
  [[nodiscard]] std::uint32_t class_of_group(std::uint64_t group) const {
    return group_class_[group];
  }
  [[nodiscard]] std::uint64_t num_groups() const { return group_class_.size(); }

 private:
  void reset_policy() override { writes_since_swap_ = 0; }
  void save_policy(StateWriter& w) const override { w.u64(writes_since_swap_); }
  [[nodiscard]] Status load_policy(StateReader& r) override {
    return load_cadence_counter(r, interval_, writes_since_swap_, "bwl");
  }
  [[nodiscard]] std::uint64_t sample_victim(Rng& rng) const;

  std::uint64_t group_lines_;
  std::uint64_t interval_;
  std::uint64_t writes_since_swap_{0};
  std::vector<std::uint32_t> group_class_;
  /// Groups bucketed by class, for uniform-within-class victim picking.
  std::vector<std::vector<std::uint32_t>> class_groups_;
  std::unique_ptr<AliasTable> class_sampler_;
};

}  // namespace nvmsec
