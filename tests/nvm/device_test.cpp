#include "nvm/device.h"

#include <gtest/gtest.h>

#include <memory>

namespace nvmsec {
namespace {

std::shared_ptr<const EnduranceMap> tiny_map() {
  // 4 regions x 4 lines, endurances 2/3/4/5 per region.
  return std::make_shared<EnduranceMap>(DeviceGeometry::scaled(16, 4),
                                        std::vector<Endurance>{2, 3, 4, 5});
}

TEST(DeviceTest, NullMapThrows) {
  EXPECT_THROW(Device(nullptr), std::invalid_argument);
}

TEST(DeviceTest, BudgetsMatchEndurance) {
  Device d(tiny_map());
  EXPECT_EQ(d.write_budget(PhysLineAddr{0}), 2u);
  EXPECT_EQ(d.write_budget(PhysLineAddr{4}), 3u);
  EXPECT_EQ(d.write_budget(PhysLineAddr{15}), 5u);
  EXPECT_DOUBLE_EQ(d.total_budget(), 4 * (2 + 3 + 4 + 5));
}

TEST(DeviceTest, FractionalEnduranceRoundsAndClampsToOne) {
  auto map = std::make_shared<EnduranceMap>(
      DeviceGeometry::scaled(8, 2), std::vector<Endurance>{0.2, 2.6});
  Device d(map);
  EXPECT_EQ(d.write_budget(PhysLineAddr{0}), 1u);  // clamped up to 1
  EXPECT_EQ(d.write_budget(PhysLineAddr{4}), 3u);  // rounded
}

TEST(DeviceTest, WearOutOnExactlyLastWrite) {
  Device d(tiny_map());
  const PhysLineAddr line{0};  // budget 2
  EXPECT_EQ(d.write(line), WriteOutcome::kOk);
  EXPECT_EQ(d.remaining(line), 1u);
  EXPECT_FALSE(d.is_worn_out(line));
  EXPECT_EQ(d.write(line), WriteOutcome::kWornOut);
  EXPECT_TRUE(d.is_worn_out(line));
  EXPECT_EQ(d.remaining(line), 0u);
  EXPECT_EQ(d.worn_out_count(), 1u);
}

TEST(DeviceTest, WritingDeadLineIsLogicError) {
  Device d(tiny_map());
  const PhysLineAddr line{0};
  d.write(line);
  d.write(line);
  EXPECT_THROW(d.write(line), std::logic_error);
}

TEST(DeviceTest, OutOfRangeThrows) {
  Device d(tiny_map());
  EXPECT_THROW(d.write(PhysLineAddr{16}), std::out_of_range);
  EXPECT_THROW(d.remaining(PhysLineAddr{16}), std::out_of_range);
  EXPECT_THROW(d.write_budget(PhysLineAddr{16}), std::out_of_range);
  EXPECT_THROW(d.writes_to(PhysLineAddr{99}), std::out_of_range);
}

TEST(DeviceTest, CountersTrackWrites) {
  Device d(tiny_map());
  d.write(PhysLineAddr{8});
  d.write(PhysLineAddr{8});
  d.write(PhysLineAddr{12});
  EXPECT_EQ(d.total_writes(), 3u);
  EXPECT_EQ(d.writes_to(PhysLineAddr{8}), 2u);
  EXPECT_EQ(d.writes_to(PhysLineAddr{12}), 1u);
  EXPECT_EQ(d.writes_to(PhysLineAddr{0}), 0u);
}

TEST(DeviceTest, ResetRestoresFactoryState) {
  Device d(tiny_map());
  d.write(PhysLineAddr{0});
  d.write(PhysLineAddr{0});
  d.reset();
  EXPECT_EQ(d.total_writes(), 0u);
  EXPECT_EQ(d.worn_out_count(), 0u);
  EXPECT_FALSE(d.is_worn_out(PhysLineAddr{0}));
  EXPECT_EQ(d.remaining(PhysLineAddr{0}), 2u);
  // And the line works again.
  EXPECT_EQ(d.write(PhysLineAddr{0}), WriteOutcome::kOk);
}

TEST(DeviceTest, WriteManyAbsorbsUpToTheBudget) {
  Device d(tiny_map());
  const PhysLineAddr line{12};  // budget 5
  const BulkWriteResult r = d.write_many(line, 3);
  EXPECT_EQ(r.absorbed, 3u);
  EXPECT_FALSE(r.wore_out);
  EXPECT_EQ(d.remaining(line), 2u);
  EXPECT_EQ(d.total_writes(), 3u);
  EXPECT_EQ(d.writes_to(line), 3u);
}

TEST(DeviceTest, WriteManySplitsAtWearOut) {
  Device d(tiny_map());
  const PhysLineAddr line{4};  // budget 3
  // Ask for more than the line can take: only the remainder is absorbed
  // and the line dies on its last absorbed write.
  const BulkWriteResult r = d.write_many(line, 10);
  EXPECT_EQ(r.absorbed, 3u);
  EXPECT_TRUE(r.wore_out);
  EXPECT_TRUE(d.is_worn_out(line));
  EXPECT_EQ(d.total_writes(), 3u);
  EXPECT_EQ(d.worn_out_count(), 1u);
}

TEST(DeviceTest, WriteManyExactBudgetWearsOut) {
  Device d(tiny_map());
  const PhysLineAddr line{0};  // budget 2
  const BulkWriteResult r = d.write_many(line, 2);
  EXPECT_EQ(r.absorbed, 2u);
  EXPECT_TRUE(r.wore_out);
  EXPECT_EQ(d.worn_out_count(), 1u);
}

TEST(DeviceTest, WriteManyMatchesSingleWrites) {
  Device a(tiny_map());
  Device b(tiny_map());
  const PhysLineAddr line{8};  // budget 4
  const BulkWriteResult bulk = a.write_many(line, 4);
  WriteOutcome last = WriteOutcome::kOk;
  for (int i = 0; i < 4; ++i) last = b.write(line);
  EXPECT_EQ(bulk.absorbed, 4u);
  EXPECT_EQ(bulk.wore_out, last == WriteOutcome::kWornOut);
  EXPECT_EQ(a.total_writes(), b.total_writes());
  EXPECT_EQ(a.remaining(line), b.remaining(line));
  EXPECT_EQ(a.worn_out_count(), b.worn_out_count());
}

TEST(DeviceTest, WriteManyValidationMatchesWrite) {
  Device d(tiny_map());
  EXPECT_THROW(d.write_many(PhysLineAddr{16}, 1), std::out_of_range);
  EXPECT_THROW(d.write_many(PhysLineAddr{0}, 0), std::invalid_argument);
  d.write_many(PhysLineAddr{0}, 2);  // wears the line out
  EXPECT_THROW(d.write_many(PhysLineAddr{0}, 1), std::logic_error);
}

TEST(DeviceTest, GeometryAndMapAccessors) {
  auto map = tiny_map();
  Device d(map);
  EXPECT_EQ(d.geometry().num_lines(), 16u);
  EXPECT_EQ(&d.endurance_map(), map.get());
}

}  // namespace
}  // namespace nvmsec
