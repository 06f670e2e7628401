#include "nvm/geometry.h"

#include <gtest/gtest.h>

namespace nvmsec {
namespace {

TEST(GeometryTest, Paper1GbConfiguration) {
  const DeviceGeometry g = DeviceGeometry::paper_1gb();
  EXPECT_EQ(g.total_bytes(), 1ULL << 30);
  EXPECT_EQ(g.line_bytes(), 256u);
  EXPECT_EQ(g.num_lines(), (1ULL << 30) / 256);  // 4,194,304
  EXPECT_EQ(g.num_regions(), 2048u);
  EXPECT_EQ(g.lines_per_region(), 2048u);
}

TEST(GeometryTest, ScaledConfiguration) {
  const DeviceGeometry g = DeviceGeometry::scaled(4096, 64);
  EXPECT_EQ(g.num_lines(), 4096u);
  EXPECT_EQ(g.num_regions(), 64u);
  EXPECT_EQ(g.lines_per_region(), 64u);
}

TEST(GeometryTest, InvalidConfigurations) {
  EXPECT_THROW(DeviceGeometry(1024, 0, 4), std::invalid_argument);
  EXPECT_THROW(DeviceGeometry(1024, 256, 0), std::invalid_argument);
  EXPECT_THROW(DeviceGeometry(1000, 256, 2), std::invalid_argument);  // bytes
  EXPECT_THROW(DeviceGeometry(1024, 256, 3), std::invalid_argument);  // lines
}

TEST(GeometryTest, ScaledRejectsByteCountOverflow) {
  // 2^56 + 1 lines of 256 B wrap a 64-bit byte count to 256 B: one line.
  constexpr std::uint64_t kMaxLines = UINT64_MAX / 256;
  EXPECT_THROW(DeviceGeometry::scaled(kMaxLines + 1, 1), std::invalid_argument);
  EXPECT_THROW(DeviceGeometry::scaled(UINT64_MAX, 1), std::invalid_argument);
  const DeviceGeometry largest = DeviceGeometry::scaled(kMaxLines, 1);
  EXPECT_EQ(largest.num_lines(), kMaxLines);
  EXPECT_EQ(largest.total_bytes(), kMaxLines * 256);
}

TEST(GeometryTest, RegionAndOffsetRoundTrip) {
  const DeviceGeometry g = DeviceGeometry::scaled(256, 16);  // 16 lines/region
  for (std::uint64_t l = 0; l < g.num_lines(); ++l) {
    const PhysLineAddr line{l};
    const RegionId r = g.region_of(line);
    const LineInRegion off = g.offset_in_region(line);
    EXPECT_EQ(r.value(), l / 16);
    EXPECT_EQ(off.value(), l % 16);
    EXPECT_EQ(g.line_at(r, off), line);
  }
}

TEST(GeometryTest, OutOfRangeAccessesThrow) {
  const DeviceGeometry g = DeviceGeometry::scaled(64, 4);
  EXPECT_THROW(g.region_of(PhysLineAddr{64}), std::out_of_range);
  EXPECT_THROW(g.offset_in_region(PhysLineAddr{1000}), std::out_of_range);
  EXPECT_THROW(g.line_at(RegionId{4}, LineInRegion{0}), std::out_of_range);
  EXPECT_THROW(g.line_at(RegionId{0}, LineInRegion{16}), std::out_of_range);
}

TEST(GeometryTest, ContainsBoundary) {
  const DeviceGeometry g = DeviceGeometry::scaled(64, 4);
  EXPECT_TRUE(g.contains(PhysLineAddr{0}));
  EXPECT_TRUE(g.contains(PhysLineAddr{63}));
  EXPECT_FALSE(g.contains(PhysLineAddr{64}));
}

TEST(GeometryTest, EqualityComparison) {
  EXPECT_EQ(DeviceGeometry::scaled(64, 4), DeviceGeometry::scaled(64, 4));
  EXPECT_NE(DeviceGeometry::scaled(64, 4), DeviceGeometry::scaled(64, 8));
}

}  // namespace
}  // namespace nvmsec
