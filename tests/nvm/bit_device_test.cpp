#include "nvm/bit_device.h"

#include <gtest/gtest.h>

#include <memory>

#include "reduction/payload.h"

namespace nvmsec {
namespace {

std::shared_ptr<const EnduranceMap> tiny_map(Endurance e = 100.0) {
  return std::make_shared<EnduranceMap>(
      DeviceGeometry::scaled(8, 2), std::vector<Endurance>{e, e});
}

TEST(BitDeviceTest, ConstructionValidation) {
  Rng rng(1);
  EXPECT_THROW(BitDevice(nullptr, {}, rng), std::invalid_argument);
  BitDeviceParams bad;
  bad.cell_sigma = -0.1;
  EXPECT_THROW(BitDevice(tiny_map(), bad, rng), std::invalid_argument);
}

TEST(BitDeviceTest, FullScaleDeviceRejected) {
  Rng rng(1);
  auto big = std::make_shared<EnduranceMap>(
      DeviceGeometry::paper_1gb(), std::vector<Endurance>(2048, 1e8));
  EXPECT_THROW(BitDevice(big, {}, rng), std::invalid_argument);
}

TEST(BitDeviceTest, ReferenceLifetimeMatchesLineBudgets) {
  Rng rng(2);
  BitDevice d(tiny_map(250.0), {}, rng);
  EXPECT_DOUBLE_EQ(d.reference_lifetime(), 8 * 250.0);
}

TEST(BitDeviceTest, FullWriteStressKillsNearLineEndurance) {
  Rng rng(3);
  BitDeviceParams params;
  params.cell_sigma = 0.05;
  BitDevice d(tiny_map(200.0), params, rng);
  auto codec = make_full_write_codec();
  auto payload = make_random_payload();
  const PhysLineAddr line{0};
  WriteCount writes = 0;
  while (d.write(line, payload->next(rng, LogicalLineAddr{0}), *codec) == BitWriteOutcome::kOk) {
    ++writes;
  }
  // Weakest of 520 cells at sigma 0.05 fails at ~0.85x the mean.
  EXPECT_GT(writes, 120u);
  EXPECT_LT(writes, 210u);
  EXPECT_TRUE(d.is_worn_out(line));
  EXPECT_EQ(d.worn_out_count(), 1u);
  EXPECT_THROW(d.write(line, payload->next(rng, LogicalLineAddr{0}), *codec), std::logic_error);
}

TEST(BitDeviceTest, ConstantDataNeverWearsDifferentialWrite) {
  Rng rng(4);
  BitDevice d(tiny_map(50.0), {}, rng);
  auto codec = make_differential_write_codec();
  const LineData data = LineData::filled(0xABCD);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(d.write(PhysLineAddr{1}, data, *codec), BitWriteOutcome::kOk);
  }
  EXPECT_EQ(d.writes_to(PhysLineAddr{1}), 500u);
  // After the first write nothing flips, so only 16 set bits x 8 words were
  // ever programmed.
  EXPECT_LT(d.total_cells_programmed(), 520u);
}

TEST(BitDeviceTest, EcpEntriesExtendLineLifetime) {
  auto run_with_ecp = [](std::uint32_t entries) {
    Rng rng(5);
    BitDeviceParams params;
    params.cell_sigma = 0.2;
    params.ecp_entries = entries;
    BitDevice d(tiny_map(300.0), params, rng);
    auto codec = make_full_write_codec();
    auto payload = make_random_payload();
    WriteCount writes = 0;
    while (d.write(PhysLineAddr{0}, payload->next(rng, LogicalLineAddr{0}), *codec) ==
           BitWriteOutcome::kOk) {
      ++writes;
    }
    return std::pair{writes, d.ecp_used(PhysLineAddr{0})};
  };
  const auto [w0, used0] = run_with_ecp(0);
  const auto [w6, used6] = run_with_ecp(6);
  EXPECT_GT(w6, w0);
  EXPECT_EQ(used0, 0u);
  EXPECT_EQ(used6, 6u);
}

// Line lifetimes on a one-line device (cell endurance 500, sigma 0.1): the
// write-reduction and salvaging claims of §3.3.2 and §2.2.2 that
// bench_ext_write_reduction measures.
std::shared_ptr<const EnduranceMap> one_line_map() {
  return std::make_shared<const EnduranceMap>(
      EnduranceMap::uniform(DeviceGeometry::scaled(1, 1), 500.0));
}

TEST(LineSimTest, ConfigValidation) {
  // A line needs a positive cell endurance and a non-negative cell sigma.
  EXPECT_THROW(EnduranceMap::uniform(DeviceGeometry::scaled(1, 1), 0.0),
               std::invalid_argument);
  Rng rng(1);
  BitDeviceParams params;
  params.cell_sigma = -1;
  EXPECT_THROW(BitDevice(one_line_map(), params, rng), std::invalid_argument);
}

TEST(LineSimTest, FullWriteDiesNearCellEndurance) {
  // Every data cell is programmed every write, so the line dies when its
  // weakest cell does: a bit under the mean endurance.
  Rng rng(2);
  BitDevice d(one_line_map(), {}, rng);
  auto codec = make_full_write_codec();
  auto payload = make_random_payload();
  const PhysLineAddr line{0};
  while (d.write(line, payload->next(rng, LogicalLineAddr{0}), *codec) ==
         BitWriteOutcome::kOk) {
  }
  EXPECT_TRUE(d.is_worn_out(line));
  EXPECT_EQ(d.ecp_used(line), 0u);
  EXPECT_GT(d.writes_to(line), 200u);
  EXPECT_LT(d.writes_to(line), 500u);
  EXPECT_DOUBLE_EQ(static_cast<double>(d.total_cells_programmed()) /
                       static_cast<double>(d.writes_to(line)),
                   512.0);
}

TEST(LineSimTest, ConstantPayloadNeverWearsDifferentialLine) {
  Rng rng(3);
  BitDevice d(one_line_map(), {}, rng);
  auto codec = make_differential_write_codec();
  auto payload = make_constant_payload(0);
  const PhysLineAddr line{0};
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(d.write(line, payload->next(rng, LogicalLineAddr{0}), *codec),
              BitWriteOutcome::kOk);
  }
  EXPECT_FALSE(d.is_worn_out(line));
  EXPECT_EQ(d.ecp_used(line), 0u);
  EXPECT_EQ(d.writes_to(line), 5000u);
}

double mean_line_lifetime(PayloadModel& payload, WriteCodec& codec,
                          std::uint32_t ecp_entries, Rng& rng,
                          std::uint32_t* ecp_used = nullptr) {
  constexpr int kTrials = 10;
  const auto map = one_line_map();
  BitDeviceParams params;
  params.ecp_entries = ecp_entries;
  const PhysLineAddr line{0};
  double total = 0;
  for (int t = 0; t < kTrials; ++t) {
    BitDevice d(map, params, rng);
    payload.reset();
    while (d.write(line, payload.next(rng, LogicalLineAddr{0}), codec) ==
           BitWriteOutcome::kOk) {
    }
    total += static_cast<double>(d.writes_to(line));
    if (ecp_used != nullptr) *ecp_used = d.ecp_used(line);
  }
  return total / kTrials;
}

TEST(BitDeviceTest, DifferentialOutlivesFullWriteOnRandomData) {
  // Random data flips ~half the cells per write, so differential write
  // roughly doubles the line lifetime versus always-program.
  Rng rng(4);
  auto payload = make_random_payload();
  auto full = make_full_write_codec();
  auto diff = make_differential_write_codec();
  const double ratio = mean_line_lifetime(*payload, *diff, 0, rng) /
                       mean_line_lifetime(*payload, *full, 0, rng);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.6);
}

TEST(BitDeviceTest, FnwOutlivesDifferentialOnComplementData) {
  // Alternating complement data: differential programs every data cell
  // every write; FNW inverts instead and programs only the 8 flag cells.
  Rng rng(5);
  auto payload = make_complement_payload(0x0F0F0F0F0F0F0F0FULL);
  auto fnw = make_flip_n_write_codec();
  auto diff = make_differential_write_codec();
  const double diff_life = mean_line_lifetime(*payload, *diff, 0, rng);
  EXPECT_GT(mean_line_lifetime(*payload, *fnw, 0, rng), diff_life);
}

TEST(BitDeviceTest, AdversarialPatternNullifiesFnw) {
  // §3.3.2: under the 0x0000/0x5555 alternation FNW loses its advantage
  // entirely — its lifetime matches plain differential write.
  Rng rng(6);
  auto payload = make_fnw_adversarial_payload();
  auto fnw = make_flip_n_write_codec();
  auto diff = make_differential_write_codec();
  const double diff_life = mean_line_lifetime(*payload, *diff, 0, rng);
  EXPECT_NEAR(mean_line_lifetime(*payload, *fnw, 0, rng) / diff_life, 1.0,
              0.15);
}

TEST(BitDeviceTest, EcpGainIsBoundedUnderUniformStress) {
  // §2.2.2's critique, measured: under always-program stress the k-entry
  // gain is the gap between the weakest and the (k+1)-weakest cell, nothing
  // like a spare-line scheme's multiples.
  Rng rng(8);
  auto payload = make_random_payload();
  auto codec = make_full_write_codec();
  const double base = mean_line_lifetime(*payload, *codec, 0, rng);
  const double gain = mean_line_lifetime(*payload, *codec, 6, rng) / base;
  EXPECT_GT(gain, 1.0);
  EXPECT_LT(gain, 1.5);
}

class EcpEntriesTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EcpEntriesTest, MoreEntriesMeanLongerLifetime) {
  Rng rng(7);
  auto payload = make_random_payload();
  auto codec = make_full_write_codec();
  const double base = mean_line_lifetime(*payload, *codec, 0, rng);
  std::uint32_t used = 0;
  EXPECT_GT(mean_line_lifetime(*payload, *codec, GetParam(), rng, &used),
            base);
  EXPECT_EQ(used, GetParam());  // the line died at failure k + 1
}

INSTANTIATE_TEST_SUITE_P(EntryCounts, EcpEntriesTest,
                         ::testing::Values(1u, 2u, 6u, 16u));

TEST(BitDeviceTest, OutOfRangeAccessesThrow) {
  Rng rng(6);
  BitDevice d(tiny_map(), {}, rng);
  auto codec = make_full_write_codec();
  EXPECT_THROW(d.write(PhysLineAddr{8}, LineData{}, *codec),
               std::out_of_range);
  EXPECT_THROW(d.is_worn_out(PhysLineAddr{8}), std::out_of_range);
  EXPECT_THROW(d.writes_to(PhysLineAddr{8}), std::out_of_range);
  EXPECT_THROW(d.ecp_used(PhysLineAddr{8}), std::out_of_range);
}

}  // namespace
}  // namespace nvmsec
