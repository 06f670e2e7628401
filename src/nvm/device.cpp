#include "nvm/device.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nvmsec {

Device::Device(std::shared_ptr<const EnduranceMap> endurance)
    : endurance_(std::move(endurance)) {
  if (!endurance_) {
    throw std::invalid_argument("Device: endurance map is null");
  }
  load_budgets();
}

void Device::load_budgets() {
  budget_.resize(endurance_->geometry().num_lines());
  endurance_->fill_write_budgets<WriteCount>(budget_);
  total_budget_ = 0;
  for (const WriteCount b : budget_) total_budget_ += static_cast<double>(b);
  remaining_ = budget_;
}

void Device::note_wear_out(PhysLineAddr line) {
  ++worn_out_count_;
  if (wear_outs_ != nullptr) wear_outs_->inc();
  if (obs_.trace != nullptr) {
    obs_.trace->instant(
        "wear_out",
        {{"line", static_cast<double>(line.value())},
         {"region", static_cast<double>(geometry().region_of(line).value())},
         {"worn_out_lines", static_cast<double>(worn_out_count_)}});
  }
}

void Device::set_observer(const Observer& obs) {
  obs_ = obs;
  wear_outs_ =
      obs.metrics != nullptr ? &obs.metrics->counter("device.wear_outs")
                             : nullptr;
}

WriteCount Device::write_budget(PhysLineAddr line) const {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::write_budget: line out of range");
  }
  return budget_[line.value()];
}

WriteCount Device::remaining(PhysLineAddr line) const {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::remaining: line out of range");
  }
  return remaining_[line.value()];
}

bool Device::is_worn_out(PhysLineAddr line) const {
  return remaining(line) == 0;
}

WriteCount Device::writes_to(PhysLineAddr line) const {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::writes_to: line out of range");
  }
  return budget_[line.value()] - remaining_[line.value()];
}

void Device::weaken(PhysLineAddr line, WriteCount remaining) {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::weaken: line out of range");
  }
  if (remaining == 0) {
    throw std::invalid_argument(
        "Device::weaken: remaining must be >= 1 (the line dies through a "
        "write, not by fiat)");
  }
  WriteCount& rem = remaining_[line.value()];
  if (rem == 0) {
    throw std::logic_error("Device::weaken: line already worn out");
  }
  rem = std::min(rem, remaining);
}

void Device::reset() {
  remaining_ = budget_;
  total_writes_ = 0;
  worn_out_count_ = 0;
}

void Device::rebind(std::shared_ptr<const EnduranceMap> endurance) {
  if (!endurance) {
    throw std::invalid_argument("Device::rebind: endurance map is null");
  }
  endurance_ = std::move(endurance);
  load_budgets();
  total_writes_ = 0;
  worn_out_count_ = 0;
  // Fresh-construction equivalence: a new Device has no observer attached.
  obs_ = Observer{};
  wear_outs_ = nullptr;
}

void Device::save_state(StateWriter& w) const {
  w.u64(total_writes_);
  w.u64(worn_out_count_);
  w.vec_u64(remaining_);
}

Status Device::load_state(StateReader& r) {
  std::uint64_t total_writes = 0, worn_out = 0;
  if (Status st = r.u64(total_writes); !st.ok()) return st;
  if (Status st = r.u64(worn_out); !st.ok()) return st;
  std::vector<WriteCount> remaining;
  if (Status st = r.vec_u64(remaining); !st.ok()) return st;
  if (remaining.size() != budget_.size()) {
    return Status::corruption("device state: line count " +
                              std::to_string(remaining.size()) +
                              " != configured " +
                              std::to_string(budget_.size()));
  }
  std::uint64_t dead = 0;
  for (std::uint64_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i] > budget_[i]) {
      return Status::corruption(
          "device state: line " + std::to_string(i) +
          " has more remaining writes than its budget (endurance map "
          "mismatch?)");
    }
    if (remaining[i] == 0) ++dead;
  }
  if (dead != worn_out) {
    return Status::corruption("device state: worn-out count inconsistent");
  }
  remaining_ = std::move(remaining);
  total_writes_ = total_writes;
  worn_out_count_ = worn_out;
  return Status{};
}

}  // namespace nvmsec
