#include "sim/wear_report.h"

#include <gtest/gtest.h>

#include <memory>

namespace nvmsec {
namespace {

std::shared_ptr<const EnduranceMap> tiny_map() {
  return std::make_shared<EnduranceMap>(DeviceGeometry::scaled(16, 4),
                                        std::vector<Endurance>{10, 10, 10, 10});
}

TEST(WearReportTest, FreshDeviceIsAllZero) {
  Device d(tiny_map());
  const WearReport r = analyze_wear(d);
  EXPECT_DOUBLE_EQ(r.harvest_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.utilization_gini, 0.0);
  EXPECT_EQ(r.worn_out_lines, 0u);
  EXPECT_DOUBLE_EQ(r.max_line_utilization, 0.0);
}

TEST(WearReportTest, UniformWearHasZeroGini) {
  Device d(tiny_map());
  for (std::uint64_t l = 0; l < 16; ++l) {
    for (int k = 0; k < 5; ++k) d.write(PhysLineAddr{l});
  }
  const WearReport r = analyze_wear(d);
  EXPECT_DOUBLE_EQ(r.harvest_fraction, 0.5);
  EXPECT_NEAR(r.utilization_gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.max_line_utilization, 0.5);
  EXPECT_DOUBLE_EQ(r.min_line_utilization, 0.5);
}

TEST(WearReportTest, ConcentratedWearShowsUp) {
  Device d(tiny_map());
  for (int k = 0; k < 10; ++k) d.write(PhysLineAddr{0});  // wears out line 0
  const WearReport r = analyze_wear(d);
  EXPECT_EQ(r.worn_out_lines, 1u);
  EXPECT_DOUBLE_EQ(r.max_line_utilization, 1.0);
  EXPECT_DOUBLE_EQ(r.min_line_utilization, 0.0);
  EXPECT_GT(r.utilization_gini, 0.9);
  EXPECT_NEAR(r.harvest_fraction, 10.0 / 160.0, 1e-12);
}

TEST(WearReportTest, RegionUtilizationAverages) {
  Device d(tiny_map());  // 4 lines per region
  // Region 2: wear two of its four lines halfway.
  for (int k = 0; k < 5; ++k) {
    d.write(PhysLineAddr{8});
    d.write(PhysLineAddr{9});
  }
  const WearReport r = analyze_wear(d);
  ASSERT_EQ(r.region_utilization.size(), 4u);
  EXPECT_NEAR(r.region_utilization[2], 0.25, 1e-12);  // (0.5+0.5+0+0)/4
  EXPECT_DOUBLE_EQ(r.region_utilization[0], 0.0);
}

}  // namespace
}  // namespace nvmsec
