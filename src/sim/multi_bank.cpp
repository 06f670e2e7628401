#include "sim/multi_bank.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nvmsec {

MultiBankResult aggregate_multi_bank(std::vector<double> per_bank) {
  if (per_bank.empty()) {
    throw std::invalid_argument("aggregate_multi_bank: no banks");
  }
  MultiBankResult result;
  result.per_bank = std::move(per_bank);
  double sum = 0;
  for (std::size_t b = 0; b < result.per_bank.size(); ++b) {
    const double lifetime = result.per_bank[b];
    sum += lifetime;
    // Strict < keeps the FIRST bank at the minimum (the documented tie
    // rule); >= would silently drift to the last.
    if (b == 0 || lifetime < result.system_normalized) {
      result.system_normalized = lifetime;
      result.weakest_bank = static_cast<std::uint32_t>(b);
    }
    result.max_bank = std::max(result.max_bank, lifetime);
  }
  result.mean_bank = sum / static_cast<double>(result.per_bank.size());
  return result;
}

}  // namespace nvmsec
