// Device geometry: how a bank is carved into regions and lines.
//
// The paper's experimental configuration (§5.1) is a 1 GB NVM bank with
// 256 B lines divided into 2048 equal regions (so 2048 lines per region).
// All address arithmetic between the line- and region-granular views lives
// here so the rest of the library never repeats it.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace nvmsec {

class DeviceGeometry {
 public:
  /// Throws std::invalid_argument unless total_bytes is divisible into whole
  /// lines and the line count is divisible into whole regions.
  DeviceGeometry(std::uint64_t total_bytes, std::uint32_t line_bytes,
                 std::uint64_t num_regions);

  /// The paper's evaluation setup: 1 GB bank, 256 B lines, 2048 regions.
  static DeviceGeometry paper_1gb();

  /// A small configuration for stochastic simulation / tests: `num_lines`
  /// lines of 256 B grouped into `num_regions` regions. Throws
  /// std::invalid_argument when the byte count would overflow 64 bits.
  static DeviceGeometry scaled(std::uint64_t num_lines,
                               std::uint64_t num_regions);

  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint32_t line_bytes() const { return line_bytes_; }
  [[nodiscard]] std::uint64_t num_lines() const { return num_lines_; }
  [[nodiscard]] std::uint64_t num_regions() const { return num_regions_; }
  [[nodiscard]] std::uint64_t lines_per_region() const {
    return lines_per_region_;
  }

  [[nodiscard]] RegionId region_of(PhysLineAddr line) const;
  [[nodiscard]] LineInRegion offset_in_region(PhysLineAddr line) const;
  [[nodiscard]] PhysLineAddr line_at(RegionId region, LineInRegion offset) const;

  /// True when `line` indexes an existing line.
  [[nodiscard]] bool contains(PhysLineAddr line) const {
    return line.value() < num_lines_;
  }

  bool operator==(const DeviceGeometry&) const = default;

 private:
  std::uint64_t total_bytes_;
  std::uint32_t line_bytes_;
  std::uint64_t num_lines_;
  std::uint64_t num_regions_;
  std::uint64_t lines_per_region_;
};

}  // namespace nvmsec
