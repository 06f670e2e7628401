#include "nvm/geometry.h"

#include <stdexcept>
#include <string>

namespace nvmsec {

DeviceGeometry::DeviceGeometry(std::uint64_t total_bytes,
                               std::uint32_t line_bytes,
                               std::uint64_t num_regions)
    : total_bytes_(total_bytes),
      line_bytes_(line_bytes),
      num_regions_(num_regions) {
  if (line_bytes == 0) {
    throw std::invalid_argument("DeviceGeometry: line_bytes must be > 0");
  }
  if (num_regions == 0) {
    throw std::invalid_argument("DeviceGeometry: num_regions must be > 0");
  }
  if (total_bytes % line_bytes != 0) {
    throw std::invalid_argument(
        "DeviceGeometry: total_bytes not divisible by line_bytes");
  }
  num_lines_ = total_bytes / line_bytes;
  if (num_lines_ % num_regions != 0) {
    throw std::invalid_argument(
        "DeviceGeometry: num_lines (" + std::to_string(num_lines_) +
        ") not divisible by num_regions (" + std::to_string(num_regions) + ")");
  }
  lines_per_region_ = num_lines_ / num_regions;
}

DeviceGeometry DeviceGeometry::paper_1gb() {
  return DeviceGeometry(std::uint64_t{1} << 30, 256, 2048);
}

DeviceGeometry DeviceGeometry::scaled(std::uint64_t num_lines,
                                      std::uint64_t num_regions) {
  if (num_lines > UINT64_MAX / 256) {
    throw std::invalid_argument(
        "DeviceGeometry: " + std::to_string(num_lines) +
        " lines of 256 B overflow a 64-bit byte count");
  }
  return DeviceGeometry(num_lines * 256, 256, num_regions);
}

RegionId DeviceGeometry::region_of(PhysLineAddr line) const {
  if (!contains(line)) {
    throw std::out_of_range("DeviceGeometry::region_of: line out of range");
  }
  return RegionId{line.value() / lines_per_region_};
}

LineInRegion DeviceGeometry::offset_in_region(PhysLineAddr line) const {
  if (!contains(line)) {
    throw std::out_of_range(
        "DeviceGeometry::offset_in_region: line out of range");
  }
  return LineInRegion{line.value() % lines_per_region_};
}

PhysLineAddr DeviceGeometry::line_at(RegionId region,
                                     LineInRegion offset) const {
  if (region.value() >= num_regions_) {
    throw std::out_of_range("DeviceGeometry::line_at: region out of range");
  }
  if (offset.value() >= lines_per_region_) {
    throw std::out_of_range("DeviceGeometry::line_at: offset out of range");
  }
  return PhysLineAddr{region.value() * lines_per_region_ + offset.value()};
}

}  // namespace nvmsec
