// Self-tuning wear-leveling decorator (ROADMAP: "Adaptive defenses and
// online attack detection").
//
// Wraps any WearLeveler and retunes its remap cadence from the
// AttackDetector's alarm signal. The steering direction depends on what
// kind of anomaly is active, because the two attack families exploit the
// cadence in opposite ways:
//
//   * a sweep (UAA) feeds on migration overhead — every remap is extra
//     wear the attacker got for free — so under a sweep alarm the interval
//     is LENGTHENED (fewer remaps per user write);
//   * a concentration attack (BPA, hotspot hammering) feeds on dwell time
//     — damage accrues while a mapping stays put — so under a
//     concentration alarm the interval is SHORTENED.
//
// Escalation is geometric and bounded: each escalation moves one step of
// factor `escalate_factor`, at most `max_steps` steps from the base
// cadence, with at least `hold_windows` alarm windows between steps; after
// `relax_windows` consecutive benign windows the cadence relaxes one step
// back toward the base. Suspicious windows freeze the controller — the
// hysteresis level has to commit before the cadence moves. Everything is
// integer/IEEE-deterministic (repeated multiplication, no libm), so runs
// are reproducible across platforms and --jobs.
#pragma once

#include <cstdint>
#include <memory>

#include "detect/detector.h"
#include "wearlevel/wear_leveler.h"

namespace nvmsec {

struct AdaptivePolicy {
  /// Geometric step applied to the remap interval per escalation.
  double escalate_factor{2.0};
  /// Maximum escalation distance from the base cadence, in steps.
  std::uint32_t max_steps{3};
  /// Alarm windows between successive escalation steps.
  std::uint32_t hold_windows{4};
  /// Consecutive benign windows before relaxing one step toward base.
  std::uint32_t relax_windows{8};
};

/// Outcome of one on_window() control decision, for event emission.
struct CadenceChange {
  bool changed{false};
  std::uint64_t old_interval{0};
  std::uint64_t new_interval{0};
  /// Signed escalation step after the decision (+ = lengthened, - =
  /// shortened relative to the wrapped leveler's base cadence).
  int step{0};
};

class AdaptiveWearLeveler final : public WearLeveler {
 public:
  AdaptiveWearLeveler(std::unique_ptr<WearLeveler> inner,
                      const AdaptivePolicy& policy);

  // --- control surface (driven by the engine at window closes) -------------
  /// Feed one closed detection window's alarm state into the escalation
  /// policy. Returns what (if anything) changed, for event logging.
  CadenceChange on_window(AlarmLevel level, AttackKind kind);

  [[nodiscard]] int step() const { return step_; }
  [[nodiscard]] std::uint64_t base_interval() const { return base_interval_; }
  /// Total cadence changes applied over the run (LifetimeResult stat).
  [[nodiscard]] std::uint64_t cadence_changes() const {
    return cadence_changes_;
  }

  // --- WearLeveler interface: forward everything to the wrapped leveler ----
  [[nodiscard]] std::uint64_t logical_lines() const override {
    return inner_->logical_lines();
  }
  [[nodiscard]] std::uint64_t working_lines() const override {
    return inner_->working_lines();
  }
  [[nodiscard]] std::uint64_t translate(LogicalLineAddr la) const override {
    return inner_->translate(la);
  }
  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override {
    inner_->on_write(la, rng, out);
  }
  [[nodiscard]] std::uint64_t writes_until_remap() const override {
    return inner_->writes_until_remap();
  }
  void commit_batched_writes(std::uint64_t k) override {
    inner_->commit_batched_writes(k);
  }
  [[nodiscard]] std::uint64_t writes_until_remap_at(
      LogicalLineAddr la) const override {
    return inner_->writes_until_remap_at(la);
  }
  void commit_batched_writes_at(LogicalLineAddr la, std::uint64_t k) override {
    inner_->commit_batched_writes_at(la, k);
  }
  [[nodiscard]] std::uint64_t mapping_epoch() const override {
    return inner_->mapping_epoch();
  }
  [[nodiscard]] std::uint64_t remap_interval() const override {
    return inner_->remap_interval();
  }
  /// An external retune rebases the controller: the new interval becomes
  /// the step-0 cadence the escalation ladder is built from.
  bool set_remap_interval(std::uint64_t interval) override;
  [[nodiscard]] std::string name() const override {
    return "adaptive(" + inner_->name() + ")";
  }
  [[nodiscard]] WriteCount overhead_writes() const override {
    return inner_->overhead_writes();
  }
  void reset() override;
  void save_state(StateWriter& w) const override;
  [[nodiscard]] Status load_state(StateReader& r) override;

  [[nodiscard]] const WearLeveler& inner() const { return *inner_; }

 private:
  /// Base interval scaled by escalate_factor^step (repeated IEEE
  /// multiplication — platform-deterministic), rounded, floored at 1.
  [[nodiscard]] std::uint64_t interval_for_step(int step) const;

  std::unique_ptr<WearLeveler> inner_;
  AdaptivePolicy policy_;
  /// Wrapped leveler's boot-time cadence; 0 when it has none (then the
  /// whole controller is a no-op and on_window never changes anything).
  std::uint64_t base_interval_;
  int step_{0};
  std::uint32_t alarm_windows_{0};
  std::uint32_t benign_windows_{0};
  std::uint64_t cadence_changes_{0};
};

}  // namespace nvmsec
