// Hybrid spare-line mapping management (paper §4.1-§4.2, Fig. 3).
//
// Max-WE tracks wear-out replacements with two SRAM-resident tables:
//
//  * RMT (Region Mapping Table) — coarse, region-level, *permanent* pairs
//    (pra -> sra) built at boot from the endurance map, plus one wear-out
//    tag (wot) per line of the paired spare region. Because the pairing
//    never changes, an RMT entry costs only the spare-region id and the tag
//    bits — this is where the 85% table-size reduction comes from.
//
//  * LMT (Line Mapping Table) — fine, line-level mapping (pla -> sla) for
//    wear-outs that occur outside the RWRs, backed by the additional spare
//    regions. Entries are replaced when a spare line itself wears out
//    (§4.2: "we remove the old entry from LMT before adding a new one").
//
// Both tables are SRAM-resident, so they can take soft-error bit-flips at
// run time. Every mutable field is covered by a per-entry integrity code
// (CRC-32 over the logical content for ids, parity for the wot tag vector)
// maintained on the mutation paths; verify() reports entries whose stored
// content no longer matches its code, and debug_* hooks flip raw bits
// *without* updating the code — the fault-injection entry points.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/types.h"

namespace nvmsec {

class RegionMappingTable {
 public:
  /// `num_regions`: total regions in the device (bounds pra/sra);
  /// `lines_per_region`: size of each entry's wear-out tag vector.
  RegionMappingTable(std::uint64_t num_regions,
                     std::uint64_t lines_per_region);

  /// Record the permanent rescue pair "sra rescues pra". Each pra and sra
  /// may appear at most once; violations throw std::invalid_argument.
  void add_pair(RegionId pra, RegionId sra);

  /// Spare region paired with `pra`, or nullopt if pra has no entry.
  [[nodiscard]] std::optional<RegionId> spare_of(RegionId pra) const;

  [[nodiscard]] bool has_region(RegionId pra) const;

  /// Wear-out tag of line `offset` in rescued region `pra`. Throws if pra
  /// has no entry.
  [[nodiscard]] bool wear_out_tag(RegionId pra, LineInRegion offset) const;
  void set_wear_out_tag(RegionId pra, LineInRegion offset);

  /// Number of region pairs.
  [[nodiscard]] std::uint64_t size() const { return pairs_.size(); }

  /// Count of wear-out tags currently set (replaced lines).
  [[nodiscard]] std::uint64_t tags_set() const { return tags_set_; }

  /// All (pra, sra) pairs in insertion (weak-strong-matching) order.
  [[nodiscard]] const std::vector<std::pair<RegionId, RegionId>>& pairs()
      const {
    return pairs_;
  }

  /// Exact SRAM cost of this table: per pair, one sra id (log2 R bits,
  /// rounded up) plus one wot bit per line (§4.4).
  [[nodiscard]] std::uint64_t storage_bits() const;

  void reset_tags();

  /// Remove every pair, keeping the table's storage (the entries' tag
  /// vectors included, for the next add_pair calls to reuse): the same
  /// table a fresh RegionMappingTable(num_regions, lines_per_region) would
  /// be.
  void clear();

  // --- Integrity ---------------------------------------------------------

  /// Region ids (pra) whose entry fails its integrity check: the sra CRC
  /// does not match the stored sra, or the wot vector's parity bit is
  /// stale. Sorted ascending; empty means the table is clean.
  [[nodiscard]] std::vector<RegionId> verify() const;

  /// Fault injection: flip bit `bit` of pra's stored sra id *without*
  /// updating the entry CRC (a soft error in the SRAM cell). Throws if pra
  /// has no entry or bit >= 32.
  void debug_corrupt_sra(RegionId pra, unsigned bit);

  /// Fault injection: toggle one wot tag *without* updating the parity bit
  /// or the tags_set counter. Throws if pra has no entry or offset is out
  /// of range.
  void debug_flip_tag(RegionId pra, LineInRegion offset);

 private:
  struct Entry {
    RegionId sra;
    std::vector<bool> wot;
    /// CRC-32 over (pra, sra); stale after debug_corrupt_sra.
    std::uint32_t crc{0};
    /// Even parity over wot; stale after debug_flip_tag.
    bool wot_parity{false};
  };

  static std::uint32_t entry_crc(RegionId pra, RegionId sra);

  std::uint64_t num_regions_;
  std::uint64_t lines_per_region_;
  /// pra -> index into entries_, -1 when absent. Dense: R is small (2048).
  std::vector<std::int32_t> index_;
  /// The first size() entries are live, in pairs_ order; any after them
  /// are kept from before clear() for add_pair to reuse.
  std::vector<Entry> entries_;
  std::vector<std::pair<RegionId, RegionId>> pairs_;
  std::vector<bool> sra_used_;
  std::uint64_t tags_set_{0};
};

class LineMappingTable {
 public:
  /// `capacity`: maximum entries (the number of additional spare lines);
  /// `num_lines`: device line count (bounds addresses, sizes entries).
  LineMappingTable(std::uint64_t capacity, std::uint64_t num_lines);

  /// Current spare line for `pla`, or nullopt.
  [[nodiscard]] std::optional<PhysLineAddr> lookup(PhysLineAddr pla) const;

  /// Map pla -> sla, replacing any previous entry for pla. Returns the
  /// spare line the entry previously pointed at (nullopt for a fresh key),
  /// so callers can report a worn-out spare being superseded. Throws
  /// std::length_error when the table is full and pla is a new key.
  std::optional<PhysLineAddr> insert_or_replace(PhysLineAddr pla,
                                                PhysLineAddr sla);

  void erase(PhysLineAddr pla);

  [[nodiscard]] std::uint64_t size() const { return map_.size(); }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  /// Exact SRAM cost: capacity * (log2 N)-bit spare pointers (§4.4's
  /// (1-q)*S*log2(N) term), independent of current occupancy — the table is
  /// provisioned for the worst case.
  [[nodiscard]] std::uint64_t storage_bits() const;

  void clear() { map_.clear(); }

  /// Empty the table and re-provision it for `capacity` entries, keeping
  /// its storage: the same table a fresh LineMappingTable(capacity,
  /// num_lines) would be.
  void reset(std::uint64_t capacity);

  /// All mapped pla keys, ascending — a deterministic iteration order for
  /// fault injection and serialization (the hash map's own order is not).
  [[nodiscard]] std::vector<PhysLineAddr> sorted_keys() const;

  // --- Integrity ---------------------------------------------------------

  /// Keys whose stored sla fails its per-entry CRC. Sorted ascending.
  [[nodiscard]] std::vector<PhysLineAddr> verify() const;

  /// Fault injection: flip bit `bit` of pla's stored sla *without*
  /// updating the entry CRC. Throws if pla has no entry or bit >= 64.
  void debug_corrupt_entry(PhysLineAddr pla, unsigned bit);

 private:
  struct Slot {
    std::uint64_t sla;
    /// CRC-32 over (pla, sla); stale after debug_corrupt_entry.
    std::uint32_t crc;
  };

  static std::uint32_t slot_crc(std::uint64_t pla, std::uint64_t sla);

  std::uint64_t capacity_;
  std::uint64_t num_lines_;
  std::unordered_map<std::uint64_t, Slot> map_;
};

/// ceil(log2(x)) for x >= 1; 0 for x == 1.
std::uint64_t ceil_log2(std::uint64_t x);

}  // namespace nvmsec
