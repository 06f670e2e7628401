// Max-WE: Maximize the Weak lines' Endurance (paper §4) — the core
// contribution. A spare-line replacement scheme built on three ideas:
//
//  1. Weak-priority allocation: the weakest regions themselves become the
//     spare capacity (SWRs and additional spare regions), so the user-
//     visible space keeps the strong lines.
//  2. Weak-strong matching: SWRs are permanently paired with the next-
//     weakest regions (RWRs) — strongest SWR rescues weakest RWR — so every
//     rescued chain's combined endurance is balanced and maximized.
//  3. Hybrid mapping: the permanent pairs live in a tiny region-level RMT
//     (plus per-line wear-out tags); only wear-outs outside the RWRs use
//     line-level LMT entries backed by the additional spare regions,
//     allocated strongest-line-first.
//
// Region roles, from the weakest end of the manufacture-time endurance
// ordering:  [ SWRs | RWRs | ASRs | ... strong user regions ... ]
// SWRs and ASRs are carved out of the address space; RWRs remain user
// space. See tests/core/maxwe_paper_example_test.cpp for the paper's
// worked 7-region example (Fig. 3) reproduced literally.
#pragma once

#include <memory>
#include <vector>

#include "core/mapping_tables.h"
#include "spare/spare_scheme.h"

namespace nvmsec {

class Device;

/// What a metadata scrub pass found and did (see MaxWe::scrub).
struct ScrubReport {
  /// RMT entries whose CRC/parity check failed before the rebuild.
  std::uint64_t rmt_corrupt_detected{0};
  /// LMT entries whose CRC check failed before the rebuild.
  std::uint64_t lmt_corrupt_detected{0};
  /// Entries whose logical content actually changed during the rebuild
  /// (detected corruption that mattered, not just stale check bits).
  std::uint64_t entries_repaired{0};

  [[nodiscard]] bool clean() const {
    return rmt_corrupt_detected == 0 && lmt_corrupt_detected == 0 &&
           entries_repaired == 0;
  }
};

/// Which regions become spare capacity. kWeakPriority is the paper's
/// scheme; kRandomRegions reproduces the traditional schemes' random
/// allocation (§2.2.3) and is used by the ablation bench to isolate the
/// contribution of weak-priority selection.
enum class SpareSelectionPolicy { kWeakPriority, kRandomRegions };

/// How SWRs are paired with RWRs. kWeakStrong is the paper's antitone
/// matching (strongest SWR rescues weakest RWR); kIdentity pairs them in
/// like order (weakest with weakest) and is the ablation baseline.
enum class MatchingPolicy { kWeakStrong, kIdentity };

struct MaxWeParams {
  /// Fraction of total capacity reserved as spare (SWR + ASR), allocated in
  /// whole regions. The paper chooses 10% (§5.2.1).
  double spare_fraction{0.10};
  /// Fraction q of the spare capacity used region-mapped (SWRs); the rest
  /// backs the line-mapped additional spare regions. The paper chooses 90%
  /// (§5.2.2).
  double swr_fraction{0.90};
  /// Ablation knobs; the defaults are the paper's design.
  SpareSelectionPolicy selection{SpareSelectionPolicy::kWeakPriority};
  MatchingPolicy matching{MatchingPolicy::kWeakStrong};
  /// Seed for kRandomRegions (the choice is part of device provisioning,
  /// not of the simulated run, so it has its own seed).
  std::uint64_t selection_seed{12345};

  void validate() const;  // throws std::invalid_argument on bad values
};

class MaxWe final : public SpareScheme {
 public:
  MaxWe(std::shared_ptr<const EnduranceMap> endurance, MaxWeParams params);

  // --- SpareScheme interface -------------------------------------------
  [[nodiscard]] std::uint64_t working_lines() const override {
    return user_lines_;
  }
  [[nodiscard]] PhysLineAddr working_line(std::uint64_t idx) const override;
  PhysLineAddr resolve(std::uint64_t idx) override;
  [[nodiscard]] bool resolve_cacheable() const override { return true; }
  bool on_wear_out(std::uint64_t idx) override;
  [[nodiscard]] std::string name() const override { return "maxwe"; }
  [[nodiscard]] SpareSchemeStats stats() const override;
  void reset() override;
  /// Re-derive the whole allocation (roles, pairing, pools, resolve cache)
  /// on a new map of the same geometry, reusing this instance's storage.
  /// Construction consumes no RNG, so the rebound scheme is exactly what a
  /// fresh MaxWe(endurance, params()) would be. False on geometry mismatch.
  bool rebind(const std::shared_ptr<const EnduranceMap>& endurance,
              Rng& rng) override;
  /// Emits the SWR/RWR pairing as trace events on attach, then traces RMT
  /// redirects and additional-spare allocations as they happen and keeps
  /// `maxwe.*` counters/gauges current.
  void set_observer(const Observer& obs) override;

  // --- Paper-facing introspection --------------------------------------
  [[nodiscard]] const MaxWeParams& params() const { return params_; }
  [[nodiscard]] const std::vector<RegionId>& swr_regions() const {
    return swrs_;
  }
  [[nodiscard]] const std::vector<RegionId>& rwr_regions() const {
    return rwrs_;
  }
  [[nodiscard]] const std::vector<RegionId>& asr_regions() const {
    return asrs_;
  }
  [[nodiscard]] const RegionMappingTable& rmt() const { return rmt_; }
  [[nodiscard]] const LineMappingTable& lmt() const { return lmt_; }

  /// Mutable table access for fault injection only (the debug_* corruption
  /// hooks); simulation code must go through the SpareScheme interface.
  [[nodiscard]] RegionMappingTable& debug_rmt() { return rmt_; }
  [[nodiscard]] LineMappingTable& debug_lmt() { return lmt_; }

  /// §4.2's read-path translation, straight from the tables (LMT hit, else
  /// RMT + wear-out tag, else the address itself). resolve() returns the
  /// same answer from an O(1) cache; tests assert they agree.
  [[nodiscard]] PhysLineAddr translate_read(PhysLineAddr pla) const;

  /// Exact mapping-table SRAM cost of this instance (RMT + LMT + tags).
  [[nodiscard]] std::uint64_t mapping_overhead_bits() const;

  /// Unallocated additional-spare lines.
  [[nodiscard]] std::uint64_t asr_pool_remaining() const {
    return asr_pool_.size() - next_asr_;
  }

  /// Metadata-fault recovery (detection + rebuild-from-device).
  ///
  /// Detects corruption via the tables' per-entry CRC/parity checks, then
  /// rebuilds both tables from ground truth that survives SRAM bit-flips:
  /// the permanent RMT pairing is re-derived from the manufacture-time
  /// endurance map; wear-out tags from the device's per-line wear state
  /// (tag set <=> the RWR line is worn out); LMT entries from the current
  /// backing lines, which model FREE-p-style device-resident back-pointers.
  /// After scrub the tables match the fault-free trajectory exactly, so an
  /// injected flip followed by a scrub leaves the simulated lifetime
  /// bit-identical to a run with no faults at all.
  ScrubReport scrub(const Device& device);

  // --- Checkpointing ----------------------------------------------------
  void save_state(StateWriter& w) const override;
  [[nodiscard]] Status load_state(StateReader& r) override;

 private:
  void build_allocation();
  /// backing_[i] = working_line(i) for every working index, region by
  /// region.
  void reset_backing();
  [[nodiscard]] bool allocate_from_asr(std::uint64_t idx, PhysLineAddr pla);

  std::shared_ptr<const EnduranceMap> endurance_;
  MaxWeParams params_;
  std::uint64_t user_lines_{0};

  std::vector<RegionId> swrs_;  // weakest regions, spare (region-mapped)
  std::vector<RegionId> rwrs_;  // next weakest, user space, RMT-rescued
  std::vector<RegionId> asrs_;  // additional spare regions (line-mapped)
  std::vector<RegionId> user_regions_;  // ascending id; includes RWRs
  /// build_allocation's working storage, kept so a rebind allocates
  /// nothing: a region list (the weakest-first order, then the ASRs
  /// strongest-first) and a per-region spare flag.
  std::vector<RegionId> region_buffer_;
  std::vector<bool> spare_region_;

  RegionMappingTable rmt_;
  LineMappingTable lmt_;
  /// Additional spare lines in allocation order (strongest first).
  std::vector<std::uint32_t> asr_pool_;
  std::size_t next_asr_{0};

  /// O(1) resolve cache; tables above stay authoritative.
  std::vector<std::uint32_t> backing_;
  SpareSchemeStats stats_;

  Observer obs_{};
  Counter* rmt_redirects_{nullptr};
  Counter* asr_allocs_{nullptr};
  void publish_table_gauges() const;
};

std::unique_ptr<SpareScheme> make_maxwe(
    std::shared_ptr<const EnduranceMap> endurance, MaxWeParams params);

}  // namespace nvmsec
