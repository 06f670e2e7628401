#include "detect/detector.h"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.h"

namespace nvmsec {

const char* alarm_level_name(AlarmLevel level) {
  switch (level) {
    case AlarmLevel::kBenign: return "benign";
    case AlarmLevel::kSuspicious: return "suspicious";
    case AlarmLevel::kUnderAttack: return "under_attack";
  }
  return "unknown";
}

const char* attack_kind_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone: return "none";
    case AttackKind::kSweep: return "sweep";
    case AttackKind::kConcentration: return "concentration";
  }
  return "unknown";
}

AttackDetector::AttackDetector(const DetectorParams& params,
                               std::uint64_t logical_lines)
    : params_(params),
      logical_lines_(logical_lines),
      next_window_at_(params.window_writes) {
  if (params_.window_writes == 0) {
    throw std::invalid_argument("AttackDetector: window_writes must be > 0");
  }
  if (params_.coarse_buckets == 0 || params_.fine_buckets == 0) {
    throw std::invalid_argument("AttackDetector: bucket counts must be > 0");
  }
  if (logical_lines_ == 0) {
    throw std::invalid_argument("AttackDetector: logical_lines must be > 0");
  }
  // A bucket narrower than one line would sit permanently empty and bias
  // both statistics; clamp the resolutions to the address space.
  params_.coarse_buckets = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      params_.coarse_buckets, logical_lines_));
  params_.fine_buckets = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params_.fine_buckets, logical_lines_));
  coarse_.assign(params_.coarse_buckets, 0);
  fine_.assign(params_.fine_buckets, 0);
}

void AttackDetector::bucket_add(std::uint64_t addr, std::uint64_t count) {
  coarse_[addr * coarse_.size() / logical_lines_] += count;
  fine_[addr * fine_.size() / logical_lines_] += count;
}

void AttackDetector::range_add(std::vector<std::uint64_t>& counts,
                               std::uint64_t start, std::uint64_t end) {
  const std::uint64_t buckets = counts.size();
  std::uint64_t b = start * buckets / logical_lines_;
  const std::uint64_t b_last = (end - 1) * buckets / logical_lines_;
  std::uint64_t lo = start;
  while (b < b_last) {
    // First address belonging to bucket b+1: ceil((b+1) * L / B).
    const std::uint64_t hi =
        ((b + 1) * logical_lines_ + buckets - 1) / buckets;
    counts[b] += hi - lo;
    lo = hi;
    ++b;
  }
  counts[b] += end - lo;
}

void AttackDetector::observe(std::uint64_t addr, std::uint64_t count) {
  if (count == 0) return;
  bucket_add(addr, count);
  window_total_ += count;
  if (have_last_ && addr == last_addr_ + 1) ++seq_steps_;
  last_addr_ = addr;
  have_last_ = true;
}

void AttackDetector::observe_run(std::uint64_t start, std::uint64_t count,
                                 std::uint64_t stride) {
  if (count == 0) return;
  if (stride == 0) {
    // Repeated writes to one address: only the first write can extend a
    // sequential chain (addr == addr + 1 never holds for the repeats) —
    // exactly what `count` observe() calls would record.
    bucket_add(start, count);
    window_total_ += count;
    if (have_last_ && start == last_addr_ + 1) ++seq_steps_;
    last_addr_ = start;
    have_last_ = true;
    return;
  }
  if (stride == 1) {
    range_add(coarse_, start, start + count);
    range_add(fine_, start, start + count);
    window_total_ += count;
    seq_steps_ += count - 1;
    if (have_last_ && start == last_addr_ + 1) ++seq_steps_;
    last_addr_ = start + count - 1;
    have_last_ = true;
    return;
  }
  for (std::uint64_t i = 0; i < count; ++i) observe(start + i * stride, 1);
}

void AttackDetector::observe_counts(const WriteCountVector& counts) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    bucket_add(counts.addrs[i], counts.counts[i]);
    window_total_ += counts.counts[i];
  }
  have_last_ = false;
}

WindowVerdict AttackDetector::close_window() {
  WindowVerdict v;
  v.window_index = windows_closed_;
  v.writes = window_total_;
  v.level_before = level_;

  if (window_total_ > 0) {
    const auto total = static_cast<double>(window_total_);
    const std::uint64_t buckets = coarse_.size();
    const double expected = total / static_cast<double>(buckets);
    double chi2 = 0;
    for (std::uint64_t c : coarse_) {
      const double d = static_cast<double>(c) - expected;
      chi2 += d * d;
    }
    chi2 /= expected;
    v.uniformity =
        buckets > 1 ? chi2 / static_cast<double>(buckets - 1) : 1.0;

    std::uint64_t occupied = 0;
    for (std::uint64_t c : fine_) occupied += c != 0 ? 1 : 0;
    const std::uint64_t reachable =
        std::min<std::uint64_t>(window_total_, fine_.size());
    v.occupancy =
        static_cast<double>(occupied) / static_cast<double>(reachable);
    v.sequential = static_cast<double>(seq_steps_) / total;

    if (v.occupancy < kConcentrationOccupancyMax) {
      v.anomalous = true;
      v.kind = AttackKind::kConcentration;
    } else if (v.sequential > kSweepSequentialMin ||
               v.uniformity < kSweepUniformityMax) {
      v.anomalous = true;
      v.kind = AttackKind::kSweep;
    }
    uniformity_summary_.add(v.uniformity);
    occupancy_summary_.add(v.occupancy);
  }

  if (v.anomalous) {
    ++consecutive_anomalous_;
    consecutive_normal_ = 0;
    active_kind_ = v.kind;
    if (level_ != AlarmLevel::kUnderAttack) {
      level_ = consecutive_anomalous_ >= kRaiseWindows
                   ? AlarmLevel::kUnderAttack
                   : AlarmLevel::kSuspicious;
    }
  } else {
    ++consecutive_normal_;
    consecutive_anomalous_ = 0;
    if (level_ == AlarmLevel::kSuspicious) {
      // One normal window kills a pending raise: transients never escalate.
      level_ = AlarmLevel::kBenign;
      active_kind_ = AttackKind::kNone;
    } else if (level_ == AlarmLevel::kUnderAttack &&
               consecutive_normal_ >= kClearWindows) {
      level_ = AlarmLevel::kBenign;
      active_kind_ = AttackKind::kNone;
    }
  }
  if (level_ == AlarmLevel::kUnderAttack) {
    ++windows_in_alarm_;
    if (v.level_before != AlarmLevel::kUnderAttack) ++alarms_raised_;
  }
  v.level_after = level_;

  ++windows_closed_;
  anomalous_windows_ += v.anomalous ? 1 : 0;
  std::fill(coarse_.begin(), coarse_.end(), 0);
  std::fill(fine_.begin(), fine_.end(), 0);
  window_total_ = 0;
  seq_steps_ = 0;
  next_window_at_ += params_.window_writes;
  return v;
}

void AttackDetector::reset() {
  std::fill(coarse_.begin(), coarse_.end(), 0);
  std::fill(fine_.begin(), fine_.end(), 0);
  window_total_ = 0;
  seq_steps_ = 0;
  last_addr_ = 0;
  have_last_ = false;
  next_window_at_ = params_.window_writes;
  level_ = AlarmLevel::kBenign;
  active_kind_ = AttackKind::kNone;
  consecutive_anomalous_ = 0;
  consecutive_normal_ = 0;
  windows_closed_ = 0;
  anomalous_windows_ = 0;
  alarms_raised_ = 0;
  windows_in_alarm_ = 0;
  uniformity_summary_ = StreamSummary();
  occupancy_summary_ = StreamSummary();
}

void AttackDetector::save_state(StateWriter& w) const {
  w.vec_u64(coarse_);
  w.vec_u64(fine_);
  w.u64(window_total_);
  w.u64(seq_steps_);
  w.u64(last_addr_);
  w.boolean(have_last_);
  w.u64(next_window_at_);
  w.u8(static_cast<std::uint8_t>(level_));
  w.u8(static_cast<std::uint8_t>(active_kind_));
  w.u32(consecutive_anomalous_);
  w.u32(consecutive_normal_);
  w.u64(windows_closed_);
  w.u64(anomalous_windows_);
  w.u64(alarms_raised_);
  w.u64(windows_in_alarm_);
  uniformity_summary_.save_state(w);
  occupancy_summary_.save_state(w);
}

Status AttackDetector::load_state(StateReader& r) {
  std::vector<std::uint64_t> coarse, fine;
  if (Status st = r.vec_u64(coarse); !st.ok()) return st;
  if (Status st = r.vec_u64(fine); !st.ok()) return st;
  if (coarse.size() != coarse_.size() || fine.size() != fine_.size()) {
    return Status::corruption(
        "detector state: bucket resolution mismatch with configuration");
  }
  if (Status st = r.u64(window_total_); !st.ok()) return st;
  if (Status st = r.u64(seq_steps_); !st.ok()) return st;
  if (Status st = r.u64(last_addr_); !st.ok()) return st;
  if (Status st = r.boolean(have_last_); !st.ok()) return st;
  if (Status st = r.u64(next_window_at_); !st.ok()) return st;
  std::uint8_t level = 0, kind = 0;
  if (Status st = r.u8(level); !st.ok()) return st;
  if (Status st = r.u8(kind); !st.ok()) return st;
  if (level > static_cast<std::uint8_t>(AlarmLevel::kUnderAttack) ||
      kind > static_cast<std::uint8_t>(AttackKind::kConcentration)) {
    return Status::corruption("detector state: invalid alarm level or kind");
  }
  if (Status st = r.u32(consecutive_anomalous_); !st.ok()) return st;
  if (Status st = r.u32(consecutive_normal_); !st.ok()) return st;
  if (Status st = r.u64(windows_closed_); !st.ok()) return st;
  if (Status st = r.u64(anomalous_windows_); !st.ok()) return st;
  if (Status st = r.u64(alarms_raised_); !st.ok()) return st;
  if (Status st = r.u64(windows_in_alarm_); !st.ok()) return st;
  if (Status st = uniformity_summary_.load_state(r); !st.ok()) return st;
  if (Status st = occupancy_summary_.load_state(r); !st.ok()) return st;
  coarse_ = std::move(coarse);
  fine_ = std::move(fine);
  level_ = static_cast<AlarmLevel>(level);
  active_kind_ = static_cast<AttackKind>(kind);
  return Status{};
}

}  // namespace nvmsec
