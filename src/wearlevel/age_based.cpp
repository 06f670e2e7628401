#include "wearlevel/age_based.h"

#include <algorithm>
#include <stdexcept>

namespace nvmsec {

AgeBased::AgeBased(std::uint64_t working_lines, std::uint32_t buckets,
                   std::uint64_t interval, std::uint64_t bucket_width)
    : PermutationWearLeveler(working_lines),
      buckets_(buckets),
      interval_(interval),
      bucket_width_(bucket_width) {
  if (buckets == 0) throw std::invalid_argument("AgeBased: buckets == 0");
  if (interval == 0) throw std::invalid_argument("AgeBased: interval == 0");
  if (bucket_width == 0) {
    throw std::invalid_argument("AgeBased: bucket_width == 0");
  }
  reset_policy();
}

std::uint32_t AgeBased::bucket_of(std::uint64_t working_index) const {
  const std::uint64_t b = age_[working_index] / bucket_width_;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(b, buckets_ - 1));
}

void AgeBased::record_write(std::uint64_t working_index) {
  ++age_[working_index];
  const std::uint32_t target = bucket_of(working_index);
  const std::uint32_t current = member_bucket_[working_index];
  if (target == current) return;
  // O(1) move: swap-remove from the old bucket, append to the new one.
  auto& old_list = members_[current];
  const std::uint32_t pos = member_pos_[working_index];
  const std::uint32_t tail = old_list.back();
  old_list[pos] = tail;
  member_pos_[tail] = pos;
  old_list.pop_back();
  member_bucket_[working_index] = target;
  member_pos_[working_index] =
      static_cast<std::uint32_t>(members_[target].size());
  members_[target].push_back(static_cast<std::uint32_t>(working_index));
}

std::uint64_t AgeBased::sample_young_victim(Rng& rng) const {
  // Near-zero search: walk buckets from the youngest and pick uniformly
  // inside the first non-empty one.
  for (std::uint32_t b = 0; b < buckets_; ++b) {
    if (!members_[b].empty()) {
      return members_[b][rng.uniform_u64(members_[b].size())];
    }
  }
  throw std::logic_error("AgeBased: no bucket members (invariant broken)");
}

void AgeBased::on_write(LogicalLineAddr la, Rng& rng,
                        std::vector<WlPhysWrite>& out) {
  if (la.value() >= logical_lines()) {
    throw std::out_of_range("AgeBased::on_write: address out of range");
  }
  if (++writes_since_swap_ >= interval_) {
    writes_since_swap_ = 0;
    const std::uint64_t hot_slot = forward(la.value());
    const std::uint64_t victim = sample_young_victim(rng);
    if (victim != hot_slot) {
      swap_working(hot_slot, victim, out);
      // The migration writes age their destination slots.
      record_write(hot_slot);
      record_write(victim);
    }
  }
  const std::uint64_t slot = translate(la);
  record_write(slot);
  out.push_back({slot, false});
}

void AgeBased::save_policy(StateWriter& w) const {
  w.u64(writes_since_swap_);
  w.vec_u64(age_);
  // Bucket member lists are saved in list order: sample_young_victim picks
  // by position, so the exact order is part of the deterministic state.
  w.u64(buckets_);
  for (const auto& list : members_) w.vec_u32(list);
}

Status AgeBased::load_policy(StateReader& r) {
  std::uint64_t since = 0;
  if (Status st = load_cadence_counter(r, interval_, since, "agebased");
      !st.ok()) {
    return st;
  }
  std::vector<std::uint64_t> age;
  if (Status st = r.vec_u64(age); !st.ok()) return st;
  if (age.size() != working_lines_) {
    return Status::corruption("agebased state: age table size mismatch");
  }
  std::uint64_t buckets = 0;
  if (Status st = r.u64(buckets); !st.ok()) return st;
  if (buckets != buckets_) {
    return Status::corruption("agebased state: bucket count mismatch");
  }
  std::vector<std::vector<std::uint32_t>> members(buckets_);
  std::uint64_t total = 0;
  for (auto& list : members) {
    if (Status st = r.vec_u32(list); !st.ok()) return st;
    total += list.size();
  }
  if (total != working_lines_) {
    return Status::corruption("agebased state: bucket membership incomplete");
  }
  std::vector<std::uint32_t> pos(working_lines_);
  std::vector<std::uint32_t> bucket(working_lines_);
  std::vector<bool> seen(working_lines_, false);
  for (std::uint32_t b = 0; b < buckets_; ++b) {
    for (std::uint32_t i = 0; i < members[b].size(); ++i) {
      const std::uint32_t slot = members[b][i];
      if (slot >= working_lines_ || seen[slot]) {
        return Status::corruption("agebased state: bucket membership invalid");
      }
      seen[slot] = true;
      pos[slot] = i;
      bucket[slot] = b;
    }
  }
  writes_since_swap_ = since;
  age_ = std::move(age);
  members_ = std::move(members);
  member_pos_ = std::move(pos);
  member_bucket_ = std::move(bucket);
  return Status{};
}

void AgeBased::reset_policy() {
  writes_since_swap_ = 0;
  age_.assign(working_lines_, 0);
  members_.assign(buckets_, {});
  member_pos_.resize(working_lines_);
  member_bucket_.assign(working_lines_, 0);
  members_[0].reserve(working_lines_);
  for (std::uint64_t i = 0; i < working_lines_; ++i) {
    member_pos_[i] = static_cast<std::uint32_t>(i);
    members_[0].push_back(static_cast<std::uint32_t>(i));
  }
}

}  // namespace nvmsec
