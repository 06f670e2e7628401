// Shared machinery for permutation-backed wear levelers.
//
// All bundled schemes maintain an explicit forward/inverse permutation
// between logical lines and working indices. Explicit tables (rather than
// algebraic XOR/Feistel mappings) keep every scheme O(1) per translate,
// make swaps trivially correct for non-power-of-two sizes, and let tests
// assert bijectivity directly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "wearlevel/wear_leveler.h"

namespace nvmsec {

class PermutationWearLeveler : public WearLeveler {
 public:
  explicit PermutationWearLeveler(std::uint64_t working_lines);

  [[nodiscard]] std::uint64_t logical_lines() const override {
    return working_lines_;
  }
  [[nodiscard]] std::uint64_t working_lines() const override {
    return working_lines_;
  }

  [[nodiscard]] std::uint64_t translate(LogicalLineAddr la) const override;

  [[nodiscard]] WriteCount overhead_writes() const override {
    return overhead_writes_;
  }

  void reset() override;

  /// Saves the permutation + overhead counter, then the subclass's policy
  /// state via save_policy(). load_state() validates that the stored
  /// mapping is a bijection before applying anything.
  void save_state(StateWriter& w) const override;
  [[nodiscard]] Status load_state(StateReader& r) override;

 protected:
  /// Policy-state hooks mirroring save_state/load_state; subclasses with
  /// state beyond the permutation (cadence counters, sweep pointers, age
  /// tables) override these.
  virtual void save_policy(StateWriter& w) const { (void)w; }
  [[nodiscard]] virtual Status load_policy(StateReader& r) {
    (void)r;
    return Status{};
  }
  /// Reads a remap cadence counter into `counter`, refusing a value at or
  /// past `interval`: on_write never leaves one there, and the horizon
  /// interval - counter - 1 would underflow.
  [[nodiscard]] static Status load_cadence_counter(StateReader& r,
                                                   std::uint64_t interval,
                                                   std::uint64_t& counter,
                                                   const char* scheme);
  /// Swap the working indices backing logical lines a and b, charging one
  /// migration write to each destination (the data of each line is written
  /// into the other's slot).
  void swap_logical(std::uint64_t a, std::uint64_t b,
                    std::vector<WlPhysWrite>& out);

  /// Swap by working index (convenience for schemes that pick victims in
  /// physical space).
  void swap_working(std::uint64_t wa, std::uint64_t wb,
                    std::vector<WlPhysWrite>& out);

  /// Swap the mapping without charging migration writes; for schemes whose
  /// remap step costs something other than two writes (e.g. Start-Gap's
  /// one-write gap move), which then charge via charge_overhead().
  void swap_logical_free(std::uint64_t a, std::uint64_t b);

  /// Record one migration write to working index `wi`.
  void charge_overhead(std::uint64_t wi, std::vector<WlPhysWrite>& out);

  [[nodiscard]] std::uint64_t forward(std::uint64_t la) const {
    return fwd_[la];
  }
  [[nodiscard]] std::uint64_t inverse(std::uint64_t wi) const {
    return inv_[wi];
  }

  /// Hook for subclasses that keep state beyond the permutation.
  virtual void reset_policy() {}

  std::uint64_t working_lines_;
  WriteCount overhead_writes_{0};

 private:
  std::vector<std::uint32_t> fwd_;  // logical -> working
  std::vector<std::uint32_t> inv_;  // working -> logical
};

}  // namespace nvmsec
