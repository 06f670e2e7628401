#include "wearlevel/permutation_base.h"

namespace nvmsec {

PermutationWearLeveler::PermutationWearLeveler(std::uint64_t working_lines)
    : working_lines_(working_lines) {
  if (working_lines == 0) {
    throw std::invalid_argument("PermutationWearLeveler: empty working set");
  }
  if (working_lines > UINT32_MAX) {
    throw std::invalid_argument(
        "PermutationWearLeveler: working set exceeds 2^32 lines");
  }
  fwd_.resize(working_lines);
  inv_.resize(working_lines);
  for (std::uint64_t i = 0; i < working_lines; ++i) {
    fwd_[i] = static_cast<std::uint32_t>(i);
    inv_[i] = static_cast<std::uint32_t>(i);
  }
}

std::uint64_t PermutationWearLeveler::translate(LogicalLineAddr la) const {
  if (la.value() >= logical_lines()) {
    throw std::out_of_range("WearLeveler::translate: address out of range");
  }
  return fwd_[la.value()];
}

void PermutationWearLeveler::swap_logical(std::uint64_t a, std::uint64_t b,
                                          std::vector<WlPhysWrite>& out) {
  if (a == b) return;
  const std::uint32_t wa = fwd_[a];
  const std::uint32_t wb = fwd_[b];
  fwd_[a] = wb;
  fwd_[b] = wa;
  inv_[wa] = static_cast<std::uint32_t>(b);
  inv_[wb] = static_cast<std::uint32_t>(a);
  bump_mapping_epoch();
  // Data migration: a's contents are rewritten into wb and b's into wa.
  out.push_back({wb, true});
  out.push_back({wa, true});
  overhead_writes_ += 2;
}

void PermutationWearLeveler::swap_working(std::uint64_t wa, std::uint64_t wb,
                                          std::vector<WlPhysWrite>& out) {
  if (wa == wb) return;
  swap_logical(inv_[wa], inv_[wb], out);
}

void PermutationWearLeveler::swap_logical_free(std::uint64_t a,
                                               std::uint64_t b) {
  if (a == b) return;
  const std::uint32_t wa = fwd_[a];
  const std::uint32_t wb = fwd_[b];
  fwd_[a] = wb;
  fwd_[b] = wa;
  inv_[wa] = static_cast<std::uint32_t>(b);
  inv_[wb] = static_cast<std::uint32_t>(a);
  bump_mapping_epoch();
}

void PermutationWearLeveler::charge_overhead(std::uint64_t wi,
                                             std::vector<WlPhysWrite>& out) {
  out.push_back({wi, true});
  ++overhead_writes_;
}

Status PermutationWearLeveler::load_cadence_counter(StateReader& r,
                                                    std::uint64_t interval,
                                                    std::uint64_t& counter,
                                                    const char* scheme) {
  std::uint64_t value = 0;
  if (Status st = r.u64(value); !st.ok()) return st;
  if (value >= interval) {
    return Status::corruption(std::string(scheme) +
                              " state: cadence counter >= interval");
  }
  counter = value;
  return Status{};
}

void PermutationWearLeveler::save_state(StateWriter& w) const {
  w.vec_u32(fwd_);
  w.u64(overhead_writes_);
  save_policy(w);
}

Status PermutationWearLeveler::load_state(StateReader& r) {
  std::vector<std::uint32_t> fwd;
  if (Status st = r.vec_u32(fwd); !st.ok()) return st;
  if (fwd.size() != working_lines_) {
    return Status::corruption(
        "wear-leveler state: permutation size " + std::to_string(fwd.size()) +
        " != working lines " + std::to_string(working_lines_));
  }
  std::vector<bool> seen(working_lines_, false);
  for (std::uint32_t wi : fwd) {
    if (wi >= working_lines_ || seen[wi]) {
      return Status::corruption(
          "wear-leveler state: mapping is not a permutation");
    }
    seen[wi] = true;
  }
  std::uint64_t overhead = 0;
  if (Status st = r.u64(overhead); !st.ok()) return st;
  fwd_ = std::move(fwd);
  for (std::uint64_t la = 0; la < working_lines_; ++la) {
    inv_[fwd_[la]] = static_cast<std::uint32_t>(la);
  }
  overhead_writes_ = overhead;
  bump_mapping_epoch();
  return load_policy(r);
}

void PermutationWearLeveler::reset() {
  for (std::uint64_t i = 0; i < working_lines_; ++i) {
    fwd_[i] = static_cast<std::uint32_t>(i);
    inv_[i] = static_cast<std::uint32_t>(i);
  }
  overhead_writes_ = 0;
  bump_mapping_epoch();
  reset_policy();
}

}  // namespace nvmsec
