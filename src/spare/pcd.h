// PCD: Physical Capacity Degradation (§2.2.3, Ferreira et al. DATE'11).
//
// All physical lines are initially in use; when a line wears out its
// address is re-homed onto a surviving line and the device's usable
// capacity shrinks by one line. The device fails when the capacity
// guarantee is broken, i.e. when more lines have died than the configured
// degradation budget allows. The paper uses PCD to approximate the average
// case of Physical Sparing as well ("PCD and the average case of PS have
// the similar effect (less than 3.0%)", §4.3), labelling the pair "PCD/PS".
#pragma once

#include <vector>

#include "spare/spare_scheme.h"

namespace nvmsec {

class Pcd final : public SpareScheme {
 public:
  /// `degradation_budget`: number of line deaths tolerated before the
  /// capacity guarantee (and hence the device) fails.
  Pcd(std::shared_ptr<const EnduranceMap> endurance,
      std::uint64_t degradation_budget, Rng& rng);

  [[nodiscard]] std::uint64_t working_lines() const override {
    return num_lines_;
  }
  [[nodiscard]] PhysLineAddr working_line(std::uint64_t idx) const override;
  PhysLineAddr resolve(std::uint64_t idx) override;
  // Lazy rehoming mutates the mapping, but one resolve only serves the
  // writes of the entry being written: only that entry can wear its line
  // out meanwhile, and the engine resolves again after every rescue.
  [[nodiscard]] bool resolve_cacheable() const override { return true; }
  bool on_wear_out(std::uint64_t idx) override;
  [[nodiscard]] std::string name() const override { return "pcd"; }
  [[nodiscard]] SpareSchemeStats stats() const override;
  void reset() override;

  [[nodiscard]] std::uint64_t alive_lines() const { return alive_list_.size(); }

  /// PCD owns a private Rng (survivor picks), so its stream position is
  /// part of the checkpointed state.
  void save_state(StateWriter& w) const override;
  [[nodiscard]] Status load_state(StateReader& r) override;

 private:
  /// Mark the backing line dead and move `idx` to a random survivor.
  void rehome(std::uint64_t idx);
  void mark_dead(PhysLineAddr line);

  std::uint64_t num_lines_;
  std::uint64_t degradation_budget_;
  Rng rng_;
  std::vector<std::uint32_t> backing_;
  std::vector<bool> dead_;
  /// Survivors, order-irrelevant, supporting O(1) random pick + removal.
  std::vector<std::uint32_t> alive_list_;
  std::vector<std::uint32_t> alive_pos_;
  SpareSchemeStats stats_;
};

}  // namespace nvmsec
