// System-level (multi-bank) lifetime.
//
// The paper evaluates "a 1GB NVM bank" (§5.1); a deployed module has many
// banks, each with its own endurance draw and its own spare capacity, and
// the module is dead when its first bank dies (capacity guarantees are
// per-module). With line-interleaved addressing a uniform attack stays
// uniform within every bank, so the per-bank experiment is exactly the
// single-bank experiment with an independent endurance map — the system
// question is purely extreme-value statistics: lifetime_min shrinks as the
// bank count grows, and protection schemes matter *more* at system scale
// because they compress the per-bank lifetime distribution (see
// bench_ext_lifetime_distribution).
#pragma once

#include <cstdint>
#include <vector>

namespace nvmsec {

struct MultiBankResult {
  /// Per-bank normalized lifetimes, bank order.
  std::vector<double> per_bank;
  /// System lifetime: the first bank death ends the module.
  double system_normalized{0};
  /// Index of the limiting bank. Tie rule: when several banks share the
  /// minimum lifetime (e.g. a variation-free endurance model), this is the
  /// FIRST such bank — explicit so every job count, and any future
  /// reordering of bank execution, agrees exactly.
  std::uint32_t weakest_bank{0};
  double mean_bank{0};
  double max_bank{0};
};

/// Aggregate per-bank lifetimes (bank order) into a MultiBankResult: a
/// bank-order pass on the calling thread, so the outcome cannot depend on
/// which bank finished first; implements the first-bank-at-minimum tie
/// rule above. Throws on empty input. run_multi_bank (sim/parallel.h) runs
/// the banks and calls this.
MultiBankResult aggregate_multi_bank(std::vector<double> per_bank);

}  // namespace nvmsec
