#include "sim/multi_bank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/parallel.h"

namespace nvmsec {
namespace {

ExperimentConfig bank_config() {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(2048, 128);
  c.endurance.endurance_at_mean = 1000.0;
  c.spare_scheme = "maxwe";
  c.seed = 11;
  return c;
}

TEST(MultiBankTest, ZeroBanksRejected) {
  EXPECT_THROW(run_multi_bank(bank_config(), 0), std::invalid_argument);
}

TEST(MultiBankTest, SingleBankMatchesPlainExperiment) {
  const ExperimentConfig c = bank_config();
  const MultiBankResult multi = run_multi_bank(c, 1);
  const double single = run_experiment(c).normalized;
  ASSERT_EQ(multi.per_bank.size(), 1u);
  EXPECT_DOUBLE_EQ(multi.system_normalized, single);
  EXPECT_DOUBLE_EQ(multi.mean_bank, single);
  EXPECT_EQ(multi.weakest_bank, 0u);
}

TEST(MultiBankTest, SystemIsMinimumOfBanks) {
  const MultiBankResult r = run_multi_bank(bank_config(), 6);
  ASSERT_EQ(r.per_bank.size(), 6u);
  const double min = *std::min_element(r.per_bank.begin(), r.per_bank.end());
  const double max = *std::max_element(r.per_bank.begin(), r.per_bank.end());
  EXPECT_DOUBLE_EQ(r.system_normalized, min);
  EXPECT_DOUBLE_EQ(r.max_bank, max);
  EXPECT_DOUBLE_EQ(r.per_bank[r.weakest_bank], min);
  EXPECT_LE(r.system_normalized, r.mean_bank);
  EXPECT_LE(r.mean_bank, r.max_bank);
}

TEST(MultiBankTest, BanksUseIndependentEnduranceDraws) {
  const MultiBankResult r = run_multi_bank(bank_config(), 4);
  // All four banks drawing identical lifetimes would mean the seeds were
  // not varied.
  EXPECT_NE(r.per_bank[0], r.per_bank[1]);
}

TEST(MultiBankTest, AggregateTiesResolveToFirstBankAtMinimum) {
  const MultiBankResult r =
      aggregate_multi_bank({0.5, 0.3, 0.4, 0.3, 0.3});
  EXPECT_DOUBLE_EQ(r.system_normalized, 0.3);
  EXPECT_EQ(r.weakest_bank, 1u);  // first of the three tied banks
  EXPECT_DOUBLE_EQ(r.max_bank, 0.5);
  EXPECT_THROW(aggregate_multi_bank({}), std::invalid_argument);
}

TEST(MultiBankTest, IdenticalBanksTieToBankZero) {
  // A variation-free endurance model gives every bank the same lifetime
  // regardless of its seed: all banks tie, and the documented rule says the
  // FIRST one is reported.
  ExperimentConfig c = bank_config();
  c.endurance.current_stddev_ma = 0.0;
  const MultiBankResult r = run_multi_bank(c, 4);
  for (double bank : r.per_bank) {
    EXPECT_DOUBLE_EQ(bank, r.per_bank[0]);
  }
  EXPECT_EQ(r.weakest_bank, 0u);
}

TEST(MultiBankTest, ParallelPathMatchesSerialExactly) {
  // Reference: the banks run one after another as plain experiments (bank
  // b on seed + b) and are aggregated in bank order.
  const ExperimentConfig c = bank_config();
  std::vector<double> per_bank;
  for (std::uint32_t b = 0; b < 6; ++b) {
    ExperimentConfig bank = c;
    bank.seed = c.seed + b;
    per_bank.push_back(run_experiment(bank).normalized);
  }
  const MultiBankResult serial = aggregate_multi_bank(std::move(per_bank));
  for (std::size_t jobs : {1u, 3u, 8u}) {
    ParallelOptions options;
    options.jobs = jobs;
    const MultiBankResult parallel = run_multi_bank(c, 6, options);
    ASSERT_EQ(parallel.per_bank.size(), serial.per_bank.size());
    for (std::size_t b = 0; b < serial.per_bank.size(); ++b) {
      EXPECT_DOUBLE_EQ(parallel.per_bank[b], serial.per_bank[b])
          << "jobs " << jobs << " bank " << b;
    }
    EXPECT_DOUBLE_EQ(parallel.system_normalized, serial.system_normalized);
    EXPECT_EQ(parallel.weakest_bank, serial.weakest_bank);
    EXPECT_DOUBLE_EQ(parallel.mean_bank, serial.mean_bank);
    EXPECT_DOUBLE_EQ(parallel.max_bank, serial.max_bank);
  }
}

TEST(MultiBankTest, ParallelTieAlsoResolvesToBankZero) {
  ExperimentConfig c = bank_config();
  c.endurance.current_stddev_ma = 0.0;
  ParallelOptions options;
  options.jobs = 4;
  // Even though banks complete in arbitrary order, aggregation is a
  // bank-order pass, so the tie still lands on bank 0.
  EXPECT_EQ(run_multi_bank(c, 4, options).weakest_bank, 0u);
}

TEST(MultiBankTest, MoreBanksNeverRaiseSystemLifetime) {
  const ExperimentConfig c = bank_config();
  double prev = 1e9;
  for (std::uint32_t banks : {1u, 2u, 4u, 8u}) {
    // Same seed base: the bank set is a superset of the previous one, so
    // the minimum is monotone non-increasing.
    const double system = run_multi_bank(c, banks).system_normalized;
    EXPECT_LE(system, prev);
    prev = system;
  }
}

}  // namespace
}  // namespace nvmsec
