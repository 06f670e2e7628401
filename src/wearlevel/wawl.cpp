#include "wearlevel/wawl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nvmsec {

Wawl::Wawl(std::uint64_t working_lines, const EnduranceView& endurance,
           std::uint64_t group_lines, std::uint64_t base_interval, double alpha)
    : PermutationWearLeveler(working_lines),
      group_lines_(group_lines),
      base_interval_(base_interval) {
  if (endurance.size() != working_lines) {
    throw std::invalid_argument("Wawl: endurance view size mismatch");
  }
  if (group_lines == 0 || working_lines % group_lines != 0) {
    throw std::invalid_argument(
        "Wawl: working_lines must be divisible by group_lines");
  }
  if (base_interval == 0) {
    throw std::invalid_argument("Wawl: base_interval must be > 0");
  }
  if (alpha <= 0) throw std::invalid_argument("Wawl: alpha must be > 0");

  const std::uint64_t groups = working_lines / group_lines;
  std::vector<double> strength(groups);
  double mean_e = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    double sum = 0;
    for (std::uint64_t i = 0; i < group_lines; ++i) {
      sum += endurance[g * group_lines + i];
    }
    strength[g] = sum / static_cast<double>(group_lines);
    mean_e += strength[g];
  }
  mean_e /= static_cast<double>(groups);
  dwell_weight_.resize(groups);
  for (std::uint64_t g = 0; g < groups; ++g) {
    strength[g] /= mean_e;  // normalize: mean strength == 1
    dwell_weight_[g] = std::pow(strength[g], alpha);
  }
  group_sampler_ = std::make_unique<AliasTable>(dwell_weight_);
  rebuild_budgets();
  countdown_.assign(working_lines, 0);
}

bool Wawl::set_remap_interval(std::uint64_t interval) {
  if (interval == 0) return false;
  base_interval_ = interval;
  rebuild_budgets();
  return true;
}

void Wawl::rebuild_budgets() {
  budget_.resize(dwell_weight_.size());
  for (std::size_t g = 0; g < dwell_weight_.size(); ++g) {
    const double budget =
        static_cast<double>(base_interval_) * dwell_weight_[g];
    budget_[g] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(budget)),
        UINT32_MAX));
  }
}

std::uint64_t Wawl::sample_victim(Rng& rng) const {
  const std::uint64_t group = group_sampler_->sample(rng);
  return group * group_lines_ + rng.uniform_u64(group_lines_);
}

std::uint64_t Wawl::writes_until_remap_at(LogicalLineAddr la) const {
  const std::uint64_t slot = translate(la);  // range-checks la
  const std::uint32_t countdown = countdown_[la.value()];
  return (countdown != 0 ? countdown : dwell_budget(slot)) - 1;
}

void Wawl::commit_batched_writes_at(LogicalLineAddr la, std::uint64_t k) {
  // k == 0 stands for no on_write call, so a fresh line stays fresh.
  if (k == 0) return;
  const std::uint64_t slot = translate(la);
  std::uint32_t& countdown = countdown_[la.value()];
  if (countdown == 0) countdown = dwell_budget(slot);
  countdown -= static_cast<std::uint32_t>(k);
}

void Wawl::on_write(LogicalLineAddr la, Rng& rng,
                    std::vector<WlPhysWrite>& out) {
  if (la.value() >= logical_lines()) {
    throw std::out_of_range("Wawl::on_write: address out of range");
  }
  const std::uint64_t l = la.value();
  if (countdown_[l] == 0) {
    // Fresh placement (first write, or dwell expired last time).
    countdown_[l] = dwell_budget(forward(l));
  }
  if (--countdown_[l] == 0) {
    // Dwell expired: move this data to an endurance-weighted victim. The
    // displaced victim's dwell restarts at its new (our old) slot.
    const std::uint64_t old_slot = forward(l);
    const std::uint64_t victim_slot = sample_victim(rng);
    const std::uint64_t victim_logical = inverse(victim_slot);
    swap_working(old_slot, victim_slot, out);
    countdown_[l] = dwell_budget(victim_slot);
    if (victim_logical != l) {
      countdown_[victim_logical] = dwell_budget(old_slot);
    }
  }
  out.push_back({translate(la), false});
}

void Wawl::reset_policy() {
  std::fill(countdown_.begin(), countdown_.end(), 0);
}

}  // namespace nvmsec
