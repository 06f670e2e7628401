// Device: the raw NVM bank's wear state.
//
// Tracks per-line write budgets derived from the EnduranceMap and reports
// the wear-out event on exactly the write that exhausts a line. Writing to
// a line that is already worn out is a logic error (the spare-replacement
// layer above must redirect such writes), so it throws rather than silently
// corrupting lifetime accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nvm/endurance_map.h"
#include "obs/observer.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/types.h"

namespace nvmsec {

enum class WriteOutcome {
  kOk,       ///< Write absorbed; line still alive.
  kWornOut,  ///< This write was the line's last: it is now worn out.
};

/// Result of a batched Device::write_many call.
struct BulkWriteResult {
  WriteCount absorbed{0};  ///< Writes the line actually took (<= requested).
  bool wore_out{false};    ///< The last absorbed write exhausted the line.
};

class Device {
 public:
  explicit Device(std::shared_ptr<const EnduranceMap> endurance);

  [[nodiscard]] const DeviceGeometry& geometry() const {
    return endurance_->geometry();
  }
  [[nodiscard]] const EnduranceMap& endurance_map() const { return *endurance_; }

  /// Apply one write to `line`. Throws std::logic_error if the line is
  /// already worn out.
  WriteOutcome write(PhysLineAddr line) {
    return write_many(line, 1).wore_out ? WriteOutcome::kWornOut
                                        : WriteOutcome::kOk;
  }

  /// Bulk entry: apply up to `count` writes to `line` with one validation
  /// and one budget subtraction. Returns how many writes the line absorbed
  /// (min(count, remaining)) and whether the last absorbed write wore it
  /// out. Throws exactly like write() for an out-of-range or already
  /// worn-out line; `count` must be >= 1. Inline: the engine's write loop
  /// issues every device write through here.
  BulkWriteResult write_many(PhysLineAddr line, WriteCount count) {
    if (line.value() >= remaining_.size()) [[unlikely]] {
      throw std::out_of_range("Device::write_many: line out of range");
    }
    if (count == 0) [[unlikely]] {
      throw std::invalid_argument("Device::write_many: count must be >= 1");
    }
    WriteCount& rem = remaining_[line.value()];
    if (rem == 0) [[unlikely]] {
      throw std::logic_error(
          "Device::write_many: write to a worn-out line (spare layer must "
          "redirect)");
    }
    const WriteCount absorbed = count < rem ? count : rem;
    total_writes_ += absorbed;
    rem -= absorbed;
    const bool wore_out = rem == 0;
    if (wore_out) [[unlikely]] note_wear_out(line);
    return {absorbed, wore_out};
  }

  /// Integer write budget of `line` (write_budget() of its endurance).
  [[nodiscard]] WriteCount write_budget(PhysLineAddr line) const;

  /// Writes `line` can still absorb.
  [[nodiscard]] WriteCount remaining(PhysLineAddr line) const;

  [[nodiscard]] bool is_worn_out(PhysLineAddr line) const;

  /// Writes absorbed by `line` so far.
  [[nodiscard]] WriteCount writes_to(PhysLineAddr line) const;

  /// Total writes absorbed by the whole device.
  [[nodiscard]] WriteCount total_writes() const { return total_writes_; }

  /// Number of worn-out lines.
  [[nodiscard]] std::uint64_t worn_out_count() const { return worn_out_count_; }

  /// Sum of all line write budgets: the ideal lifetime denominator (§5.1's
  /// normalized-lifetime metric).
  [[nodiscard]] double total_budget() const { return total_budget_; }

  /// Failure injection: cap `line`'s remaining writes at `remaining`
  /// (>= 1), modelling a latent defect that the manufacture-time endurance
  /// map missed. The line still dies through the normal wear-out event on
  /// its last write, so the spare-replacement flow is exercised unchanged.
  /// Throws std::logic_error if the line is already worn out.
  void weaken(PhysLineAddr line, WriteCount remaining);

  /// Restore the factory-fresh wear state.
  void reset();

  /// Re-target the device at a different endurance map, reusing the budget
  /// vectors — equivalent to constructing Device(endurance) fresh, without
  /// the allocations. The fleet runner's per-worker reuse hook.
  void rebind(std::shared_ptr<const EnduranceMap> endurance);

  /// Checkpointing: per-line remaining budgets plus the aggregate wear
  /// counters. Budgets themselves are rebuilt from the endurance map, and
  /// load_state() cross-checks the saved remainders against them.
  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

  /// Attach observability sinks. Wear-out events then emit a trace instant
  /// with the line/region coordinates and bump the `device.wear_outs`
  /// counter. Only the wear-out branch is instrumented — the per-write hot
  /// path stays untouched.
  void set_observer(const Observer& obs);

 private:
  /// Cold path of write_many: bump the worn-out counters and emit the
  /// trace instant.
  void note_wear_out(PhysLineAddr line);
  /// Budgets from the endurance map (write_budget() per line), their total,
  /// and a factory-fresh remaining_.
  void load_budgets();

  Observer obs_{};
  Counter* wear_outs_{nullptr};
  std::shared_ptr<const EnduranceMap> endurance_;
  std::vector<WriteCount> remaining_;
  std::vector<WriteCount> budget_;
  WriteCount total_writes_{0};
  std::uint64_t worn_out_count_{0};
  double total_budget_{0};
};

}  // namespace nvmsec
