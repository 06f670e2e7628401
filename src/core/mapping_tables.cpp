#include "core/mapping_tables.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/crc32.h"

namespace nvmsec {

namespace {
/// CRC-32 over two 64-bit words (little-endian byte order, fixed so the
/// code is stable across platforms and checkpoint files).
std::uint32_t crc_of_pair(std::uint64_t a, std::uint64_t b) {
  std::uint8_t buf[16];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(a >> (8 * i));
    buf[8 + i] = static_cast<std::uint8_t>(b >> (8 * i));
  }
  return crc32(buf, sizeof(buf));
}

bool parity_of(const std::vector<bool>& bits) {
  bool p = false;
  for (bool b : bits) p ^= b;
  return p;
}
}  // namespace

std::uint64_t ceil_log2(std::uint64_t x) {
  if (x == 0) throw std::invalid_argument("ceil_log2: x must be >= 1");
  std::uint64_t bits = 0;
  std::uint64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

RegionMappingTable::RegionMappingTable(std::uint64_t num_regions,
                                       std::uint64_t lines_per_region)
    : num_regions_(num_regions),
      lines_per_region_(lines_per_region),
      index_(num_regions, -1),
      sra_used_(num_regions, false) {
  if (num_regions == 0 || lines_per_region == 0) {
    throw std::invalid_argument("RegionMappingTable: empty geometry");
  }
}

void RegionMappingTable::add_pair(RegionId pra, RegionId sra) {
  if (pra.value() >= num_regions_ || sra.value() >= num_regions_) {
    throw std::invalid_argument("RMT::add_pair: region out of range");
  }
  if (pra == sra) {
    throw std::invalid_argument("RMT::add_pair: region cannot rescue itself");
  }
  if (index_[pra.value()] != -1) {
    throw std::invalid_argument("RMT::add_pair: pra already paired");
  }
  if (sra_used_[sra.value()]) {
    throw std::invalid_argument("RMT::add_pair: sra already used");
  }
  // Entries past size() are left over from before clear(): reuse the first
  // one, tag storage included.
  const std::size_t k = pairs_.size();
  if (k == entries_.size()) entries_.emplace_back();
  Entry& entry = entries_[k];
  entry.sra = sra;
  entry.wot.assign(lines_per_region_, false);
  entry.crc = entry_crc(pra, sra);
  entry.wot_parity = false;
  index_[pra.value()] = static_cast<std::int32_t>(k);
  pairs_.emplace_back(pra, sra);
  sra_used_[sra.value()] = true;
}

std::uint32_t RegionMappingTable::entry_crc(RegionId pra, RegionId sra) {
  return crc_of_pair(pra.value(), sra.value());
}

std::optional<RegionId> RegionMappingTable::spare_of(RegionId pra) const {
  if (pra.value() >= num_regions_) {
    throw std::out_of_range("RMT::spare_of: region out of range");
  }
  const std::int32_t i = index_[pra.value()];
  if (i < 0) return std::nullopt;
  return entries_[static_cast<std::size_t>(i)].sra;
}

bool RegionMappingTable::has_region(RegionId pra) const {
  return pra.value() < num_regions_ && index_[pra.value()] >= 0;
}

bool RegionMappingTable::wear_out_tag(RegionId pra,
                                      LineInRegion offset) const {
  if (!has_region(pra)) {
    throw std::invalid_argument("RMT::wear_out_tag: pra not in table");
  }
  if (offset.value() >= lines_per_region_) {
    throw std::out_of_range("RMT::wear_out_tag: offset out of range");
  }
  return entries_[static_cast<std::size_t>(index_[pra.value()])]
      .wot[offset.value()];
}

void RegionMappingTable::set_wear_out_tag(RegionId pra, LineInRegion offset) {
  if (!has_region(pra)) {
    throw std::invalid_argument("RMT::set_wear_out_tag: pra not in table");
  }
  if (offset.value() >= lines_per_region_) {
    throw std::out_of_range("RMT::set_wear_out_tag: offset out of range");
  }
  auto& entry = entries_[static_cast<std::size_t>(index_[pra.value()])];
  if (!entry.wot[offset.value()]) {
    entry.wot[offset.value()] = true;
    entry.wot_parity = !entry.wot_parity;
    ++tags_set_;
  }
}

std::vector<RegionId> RegionMappingTable::verify() const {
  std::vector<RegionId> bad;
  for (const auto& [pra, sra] : pairs_) {
    const auto& entry = entries_[static_cast<std::size_t>(index_[pra.value()])];
    if (entry.crc != entry_crc(pra, entry.sra) ||
        entry.wot_parity != parity_of(entry.wot)) {
      bad.push_back(pra);
    }
  }
  std::sort(bad.begin(), bad.end(),
            [](RegionId a, RegionId b) { return a.value() < b.value(); });
  return bad;
}

void RegionMappingTable::debug_corrupt_sra(RegionId pra, unsigned bit) {
  if (!has_region(pra)) {
    throw std::invalid_argument("RMT::debug_corrupt_sra: pra not in table");
  }
  if (bit >= 32) {
    throw std::out_of_range("RMT::debug_corrupt_sra: bit >= 32");
  }
  auto& entry = entries_[static_cast<std::size_t>(index_[pra.value()])];
  entry.sra = RegionId{entry.sra.value() ^ (std::uint64_t{1} << bit)};
}

void RegionMappingTable::debug_flip_tag(RegionId pra, LineInRegion offset) {
  if (!has_region(pra)) {
    throw std::invalid_argument("RMT::debug_flip_tag: pra not in table");
  }
  if (offset.value() >= lines_per_region_) {
    throw std::out_of_range("RMT::debug_flip_tag: offset out of range");
  }
  auto& entry = entries_[static_cast<std::size_t>(index_[pra.value()])];
  entry.wot[offset.value()] = !entry.wot[offset.value()];
}

std::uint64_t RegionMappingTable::storage_bits() const {
  const std::uint64_t id_bits = ceil_log2(num_regions_);
  // Per entry: the spare-region id and one wear-out tag per line. (The pra
  // itself indexes the table, mirroring §4.1: "RMT only records the region
  // id of SWRs and RWRs" paired by position.)
  return size() * (id_bits + lines_per_region_);
}

void RegionMappingTable::reset_tags() {
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    entries_[k].wot.assign(lines_per_region_, false);
    entries_[k].wot_parity = false;
  }
  tags_set_ = 0;
}

void RegionMappingTable::clear() {
  index_.assign(num_regions_, -1);
  pairs_.clear();
  sra_used_.assign(num_regions_, false);
  tags_set_ = 0;
}

LineMappingTable::LineMappingTable(std::uint64_t capacity,
                                   std::uint64_t num_lines)
    : capacity_(capacity), num_lines_(num_lines) {
  map_.reserve(capacity);
}

void LineMappingTable::reset(std::uint64_t capacity) {
  map_.clear();
  capacity_ = capacity;
  map_.reserve(capacity);
}

std::optional<PhysLineAddr> LineMappingTable::lookup(PhysLineAddr pla) const {
  const auto it = map_.find(pla.value());
  if (it == map_.end()) return std::nullopt;
  return PhysLineAddr{it->second.sla};
}

std::uint32_t LineMappingTable::slot_crc(std::uint64_t pla, std::uint64_t sla) {
  return crc_of_pair(pla, sla);
}

std::optional<PhysLineAddr> LineMappingTable::insert_or_replace(
    PhysLineAddr pla, PhysLineAddr sla) {
  if (pla.value() >= num_lines_ || sla.value() >= num_lines_) {
    throw std::out_of_range("LMT::insert_or_replace: address out of range");
  }
  const auto it = map_.find(pla.value());
  if (it != map_.end()) {
    const PhysLineAddr previous{it->second.sla};
    it->second = Slot{sla.value(), slot_crc(pla.value(), sla.value())};
    return previous;
  }
  if (map_.size() >= capacity_) {
    throw std::length_error("LMT::insert_or_replace: table full");
  }
  map_.emplace(pla.value(),
               Slot{sla.value(), slot_crc(pla.value(), sla.value())});
  return std::nullopt;
}

std::vector<PhysLineAddr> LineMappingTable::sorted_keys() const {
  std::vector<PhysLineAddr> keys;
  keys.reserve(map_.size());
  for (const auto& [pla, slot] : map_) keys.push_back(PhysLineAddr{pla});
  std::sort(keys.begin(), keys.end(),
            [](PhysLineAddr a, PhysLineAddr b) { return a.value() < b.value(); });
  return keys;
}

std::vector<PhysLineAddr> LineMappingTable::verify() const {
  std::vector<PhysLineAddr> bad;
  for (const auto& [pla, slot] : map_) {
    if (slot.crc != slot_crc(pla, slot.sla)) bad.push_back(PhysLineAddr{pla});
  }
  std::sort(bad.begin(), bad.end(),
            [](PhysLineAddr a, PhysLineAddr b) { return a.value() < b.value(); });
  return bad;
}

void LineMappingTable::debug_corrupt_entry(PhysLineAddr pla, unsigned bit) {
  const auto it = map_.find(pla.value());
  if (it == map_.end()) {
    throw std::invalid_argument("LMT::debug_corrupt_entry: pla not in table");
  }
  if (bit >= 64) {
    throw std::out_of_range("LMT::debug_corrupt_entry: bit >= 64");
  }
  it->second.sla ^= std::uint64_t{1} << bit;
}

void LineMappingTable::erase(PhysLineAddr pla) { map_.erase(pla.value()); }

std::uint64_t LineMappingTable::storage_bits() const {
  return capacity_ * ceil_log2(num_lines_);
}

}  // namespace nvmsec
