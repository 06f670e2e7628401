#include "wearlevel/security_refresh.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nvmsec {

SecurityRefresh::SecurityRefresh(std::uint64_t working_lines,
                                 std::uint64_t interval,
                                 std::uint64_t subregions, Rng& rng)
    : PermutationWearLeveler(working_lines),
      interval_(interval),
      subregions_(subregions) {
  if (interval == 0) {
    throw std::invalid_argument("SecurityRefresh: interval must be > 0");
  }
  if (subregions == 0 || working_lines % subregions != 0) {
    throw std::invalid_argument(
        "SecurityRefresh: working_lines must be divisible by subregions");
  }
  lines_per_subregion_ = working_lines / subregions;
  if (lines_per_subregion_ < 2) {
    throw std::invalid_argument("SecurityRefresh: sub-regions too small");
  }
  writes_since_step_.assign(subregions_, 0);
  writes_since_outer_.assign(subregions_, 0);
  sweep_.assign(subregions_, 0);
  key_.resize(subregions_);
  for (auto& k : key_) {
    k = 0;
    while (k == 0) k = rng.uniform_u64(lines_per_subregion_);
  }
}

bool SecurityRefresh::set_remap_interval(std::uint64_t interval) {
  if (interval == 0) return false;
  interval_ = interval;
  // Both levels compare their counters against the interval with >=, so a
  // shrink just fires sooner; clamp only to keep the counters from sitting
  // arbitrarily far past a shrunk quota (one step per write, never a burst).
  for (auto& w : writes_since_step_) w = std::min(w, interval_ - 1);
  for (auto& w : writes_since_outer_) w = std::min(w, outer_quota() - 1);
  return true;
}

void SecurityRefresh::on_write(LogicalLineAddr la, Rng& rng,
                               std::vector<WlPhysWrite>& out) {
  if (la.value() >= logical_lines()) {
    throw std::out_of_range("SecurityRefresh::on_write: address out of range");
  }
  // Write-triggered refresh: the sub-region hosting this write's current
  // physical slot accounts the write and refreshes when its quota is hit.
  const std::uint64_t subregion = forward(la.value()) / lines_per_subregion_;
  if (++writes_since_step_[subregion] >= interval_) {
    writes_since_step_[subregion] = 0;
    refresh_step(subregion, rng, out);
  }
  // Outer level: once a sub-region has absorbed a full sweep's worth of
  // writes, its entire contents migrate to a random other sub-region. This
  // is what stops an attacker from pinning damage inside one inner region.
  if (++writes_since_outer_[subregion] >= outer_quota()) {
    writes_since_outer_[subregion] = 0;
    outer_swap(subregion, rng, out);
  }
  out.push_back({translate(la), false});
}

std::uint64_t SecurityRefresh::writes_until_remap_at(
    LogicalLineAddr la) const {
  // Until its next step the sub-region keeps its mapping, so every write
  // to `la` lands in the same sub-region and bumps the same two counters.
  const std::uint64_t subregion = translate(la) / lines_per_subregion_;
  return std::min(interval_ - 1 - writes_since_step_[subregion],
                  outer_quota() - 1 - writes_since_outer_[subregion]);
}

void SecurityRefresh::commit_batched_writes_at(LogicalLineAddr la,
                                               std::uint64_t k) {
  const std::uint64_t subregion = translate(la) / lines_per_subregion_;
  writes_since_step_[subregion] += k;
  writes_since_outer_[subregion] += k;
}

void SecurityRefresh::refresh_step(std::uint64_t subregion, Rng& rng,
                                   std::vector<WlPhysWrite>& out) {
  const std::uint64_t base = subregion * lines_per_subregion_;
  const std::uint64_t at = sweep_[subregion];
  // XOR with the round key pairs each line with a unique partner, which is
  // how Security Refresh's incremental re-keying shuffles a region.
  const std::uint64_t partner = at ^ key_[subregion];
  if (partner < lines_per_subregion_ && partner != at) {
    swap_working(base + at, base + partner, out);
  }
  if (++sweep_[subregion] == lines_per_subregion_) {
    sweep_[subregion] = 0;
    // Sweep complete: draw a fresh key (never 0: that would freeze the map).
    std::uint64_t k = 0;
    while (k == 0) k = rng.uniform_u64(lines_per_subregion_);
    key_[subregion] = k;
  }
}

void SecurityRefresh::outer_swap(std::uint64_t subregion, Rng& rng,
                                 std::vector<WlPhysWrite>& out) {
  if (subregions_ < 2) return;
  std::uint64_t other = rng.uniform_u64(subregions_ - 1);
  if (other >= subregion) ++other;
  const std::uint64_t base = subregion * lines_per_subregion_;
  const std::uint64_t other_base = other * lines_per_subregion_;
  // Slot-wise exchange of the two sub-regions' contents. The migration
  // writes are real: 2 per line pair, amortized to 2/interval per user
  // write — the same order as the inner level's cost.
  for (std::uint64_t k = 0; k < lines_per_subregion_; ++k) {
    swap_working(base + k, other_base + k, out);
  }
}

Status SecurityRefresh::load_policy(StateReader& r) {
  std::vector<std::uint64_t> step, outer, sweep, key;
  if (Status st = r.vec_u64(step); !st.ok()) return st;
  if (Status st = r.vec_u64(outer); !st.ok()) return st;
  if (Status st = r.vec_u64(sweep); !st.ok()) return st;
  if (Status st = r.vec_u64(key); !st.ok()) return st;
  if (step.size() != subregions_ || outer.size() != subregions_ ||
      sweep.size() != subregions_ || key.size() != subregions_) {
    return Status::corruption("tlsr state: subregion count mismatch");
  }
  // on_write keeps each counter below its quota and refresh_step indexes
  // the sub-region by sweep pointer and key; anything else is not a state
  // the scheme can reach.
  for (std::uint64_t s = 0; s < subregions_; ++s) {
    if (step[s] >= interval_ || outer[s] >= outer_quota()) {
      return Status::corruption("tlsr state: counter >= its quota");
    }
    if (sweep[s] >= lines_per_subregion_ || key[s] == 0 ||
        key[s] >= lines_per_subregion_) {
      return Status::corruption("tlsr state: sweep or key out of range");
    }
  }
  writes_since_step_ = std::move(step);
  writes_since_outer_ = std::move(outer);
  sweep_ = std::move(sweep);
  key_ = std::move(key);
  return Status{};
}

void SecurityRefresh::reset_policy() {
  writes_since_step_.assign(subregions_, 0);
  writes_since_outer_.assign(subregions_, 0);
  sweep_.assign(subregions_, 0);
  // Keys keep their constructor-time values; reset() restores the identity
  // permutation which is what a freshly booted controller would have.
}

}  // namespace nvmsec
