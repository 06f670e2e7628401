#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace nvmsec {
namespace {

// Exact (bitwise) equality of two LifetimeResults — the parallel runner's
// contract is bit-identity with the serial loop, not approximation.
void expect_identical(const LifetimeResult& a, const LifetimeResult& b,
                      std::size_t index) {
  EXPECT_DOUBLE_EQ(a.user_writes, b.user_writes) << "run " << index;
  EXPECT_EQ(a.overhead_writes, b.overhead_writes) << "run " << index;
  EXPECT_EQ(a.absorbed_writes, b.absorbed_writes) << "run " << index;
  EXPECT_EQ(a.device_writes, b.device_writes) << "run " << index;
  EXPECT_DOUBLE_EQ(a.ideal_lifetime, b.ideal_lifetime) << "run " << index;
  EXPECT_DOUBLE_EQ(a.normalized, b.normalized) << "run " << index;
  EXPECT_EQ(a.line_deaths, b.line_deaths) << "run " << index;
  EXPECT_EQ(a.failed, b.failed) << "run " << index;
  EXPECT_EQ(a.failure_reason, b.failure_reason) << "run " << index;
}

void expect_matches_serial(const std::vector<ExperimentConfig>& configs,
                           const ParallelOptions& options) {
  const std::vector<LifetimeResult> parallel =
      run_experiments(configs, options);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(parallel[i], run_experiment(configs[i]), i);
  }
}

ParallelOptions four_jobs() {
  ParallelOptions options;
  options.jobs = 4;
  return options;
}

TEST(RunExperimentsTest, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(run_experiments({}, four_jobs()).empty());
}

TEST(RunExperimentsTest, EventModeBitIdenticalToSerial) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    for (double fraction : {0.10, 0.30}) {
      ExperimentConfig c;
      c.geometry = DeviceGeometry::scaled(4096, 64);
      c.endurance.endurance_at_mean = 1e6;
      c.seed = seed;
      c.spare_fraction = fraction;
      c.spare_scheme = "maxwe";
      configs.push_back(c);
    }
  }
  // Mix in schemes that draw from the rng after the map draw, and the
  // unprotected baseline.
  configs[1].spare_scheme = "pcd";
  configs[3].spare_scheme = "ps";
  configs[5].spare_scheme = "none";
  configs[7].line_jitter_sigma = 0.2;
  expect_matches_serial(configs, four_jobs());
}

TEST(RunExperimentsTest, StochasticModeBitIdenticalToSerial) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed : {7, 8, 9, 10}) {
    ExperimentConfig c = scaled_stochastic_config(1024, 64, 2000.0);
    c.seed = seed;
    c.attack = "bpa";
    c.wear_leveler = "wawl";
    c.spare_scheme = "maxwe";
    configs.push_back(c);
  }
  configs[1].attack = "uaa";
  configs[2].wear_leveler = "tlsr";
  configs[3].spare_scheme = "ps-worst";
  expect_matches_serial(configs, four_jobs());
}

TEST(RunExperimentsTest, BitLevelModeBitIdenticalToSerial) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed : {1, 2, 3}) {
    ExperimentConfig c;
    c.geometry = DeviceGeometry::scaled(256, 16);
    c.endurance.endurance_at_mean = 400.0;
    c.mode = SimulationMode::kBitLevel;
    c.codec = "fnw";
    c.ecp_entries = 2;
    c.spare_scheme = "maxwe";
    c.spare_fraction = 0.25;
    c.swr_fraction = 0.5;
    c.seed = seed;
    configs.push_back(c);
  }
  expect_matches_serial(configs, four_jobs());
}

TEST(RunExperimentsTest, ResultsComeBackInInputOrder) {
  // Seeds with visibly different outcomes, shuffled: each slot must hold
  // its own config's result even though execution order is arbitrary.
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed : {31, 5, 19, 2, 23, 11, 3, 17}) {
    ExperimentConfig c;
    c.geometry = DeviceGeometry::scaled(2048, 128);
    c.endurance.endurance_at_mean = 1e6;
    c.seed = seed;
    c.spare_scheme = "none";
    configs.push_back(c);
  }
  const std::vector<LifetimeResult> results =
      run_experiments(configs, four_jobs());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].normalized,
                     run_experiment(configs[i]).normalized)
        << "slot " << i;
  }
}

TEST(RunExperimentsTest, MoreJobsThanConfigsIsFine) {
  std::vector<ExperimentConfig> configs(2);
  for (auto& c : configs) {
    c.geometry = DeviceGeometry::scaled(2048, 128);
    c.endurance.endurance_at_mean = 1e6;
    c.spare_scheme = "maxwe";
  }
  configs[1].seed = 43;
  ParallelOptions options;
  options.jobs = 16;
  expect_matches_serial(configs, options);
}

TEST(RunExperimentsTest, JobsOneUsesSerialPath) {
  std::vector<ExperimentConfig> configs(3);
  for (std::uint64_t i = 0; i < configs.size(); ++i) {
    configs[i].geometry = DeviceGeometry::scaled(2048, 128);
    configs[i].endurance.endurance_at_mean = 1e6;
    configs[i].spare_scheme = "maxwe";
    configs[i].seed = 42 + i;
  }
  ParallelOptions options;
  options.jobs = 1;
  expect_matches_serial(configs, options);
}

TEST(RunExperimentsTest, OneJobSharedEventLogMatchesBackToBackRuns) {
  // A seed sweep at jobs = 1 may share one event log: its runs execute in
  // input order on the calling thread, so the log holds them back to back
  // exactly as three plain run_experiment calls would write them.
  std::vector<ExperimentConfig> configs(3);
  for (std::uint64_t i = 0; i < configs.size(); ++i) {
    configs[i].geometry = DeviceGeometry::scaled(2048, 128);
    configs[i].endurance.endurance_at_mean = 1e6;
    configs[i].spare_scheme = "maxwe";
    configs[i].seed = 42 + i;
  }
  std::ostringstream reference_out;
  {
    EventLog log(reference_out);
    for (ExperimentConfig c : configs) {
      c.observer.events = &log;
      run_experiment(c);
    }
  }
  std::ostringstream swept_out;
  {
    EventLog log(swept_out);
    for (ExperimentConfig& c : configs) c.observer.events = &log;
    ParallelOptions options;
    options.jobs = 1;
    run_experiments(configs, options);
  }
  EXPECT_FALSE(reference_out.str().empty());
  EXPECT_EQ(swept_out.str(), reference_out.str());
}

TEST(RunExperimentsTest, InvalidConfigPropagatesSmallestIndexError) {
  std::vector<ExperimentConfig> configs(4);
  for (auto& c : configs) {
    c.geometry = DeviceGeometry::scaled(2048, 128);
    c.endurance.endurance_at_mean = 1e6;
    c.spare_scheme = "maxwe";
  }
  // Three runs fail, each on a different validate_experiment_config rule;
  // the batch must rethrow index 1's error.
  configs[1].attack = "bpa";  // non-stationary: not for the event engine
  configs[2].checkpoint_interval = 1000;  // without a checkpoint_out
  configs[3].detect = true;               // detection needs stochastic mode
  std::vector<std::string> errors;
  for (std::size_t i = 1; i < configs.size(); ++i) {
    try {
      validate_experiment_config(configs[i]);
      ADD_FAILURE() << "run " << i << " passed validation";
    } catch (const std::invalid_argument& e) {
      errors.emplace_back(e.what());
    }
  }
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0], errors[1]);
  EXPECT_NE(errors[0], errors[2]);
  EXPECT_NE(errors[1], errors[2]);
  try {
    run_experiments(configs, four_jobs());
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), errors[0]);
  }
}

TEST(RunExperimentsTest, SharedObserverSinksRejectedWhenParallel) {
  MetricsRegistry shared;
  std::vector<ExperimentConfig> configs(2);
  for (auto& c : configs) {
    c.geometry = DeviceGeometry::scaled(2048, 128);
    c.endurance.endurance_at_mean = 1e6;
    c.observer.metrics = &shared;
  }
  try {
    run_experiments(configs, four_jobs());
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("serial-only"), std::string::npos);
  }
  // The same configs are fine on one thread, which runs them in order.
  ParallelOptions serial;
  serial.jobs = 1;
  EXPECT_NO_THROW(run_experiments(configs, serial));
}

TEST(RunExperimentsTest, PerRunObserversAllowedWhenParallel) {
  MetricsRegistry a, b;
  std::vector<ExperimentConfig> configs(2);
  for (auto& c : configs) {
    c.geometry = DeviceGeometry::scaled(2048, 128);
    c.endurance.endurance_at_mean = 1e6;
    c.spare_scheme = "maxwe";
  }
  configs[0].observer.metrics = &a;
  configs[1].observer.metrics = &b;
  configs[1].seed = 43;
  const std::vector<LifetimeResult> results =
      run_experiments(configs, four_jobs());
  // Each run flushed into its own registry.
  EXPECT_GT(a.counter("engine.user_writes").value(), 0u);
  EXPECT_GT(b.counter("engine.user_writes").value(), 0u);
  EXPECT_GT(results[0].normalized, 0.0);
}

// run_over_seeds, the one batch behind every paper bench and seed sweep.
std::vector<ExperimentConfig> bench_grid() {
  std::vector<ExperimentConfig> configs;
  for (const char* scheme : {"none", "pcd", "maxwe-random"}) {
    ExperimentConfig& c = configs.emplace_back();
    c.geometry = DeviceGeometry::scaled(1024, 64);
    c.endurance.endurance_at_mean = 500.0;
    c.spare_scheme = scheme;
  }
  configs[1].line_jitter_sigma = 0.1;
  return configs;
}

TEST(RunOverSeedsTest, EachConfigAndSeedMatchesADirectRun) {
  const std::vector<ExperimentConfig> configs = bench_grid();
  ParallelOptions one_job;
  one_job.jobs = 1;
  const auto runs = run_over_seeds(configs, 3, 40, one_job);
  ASSERT_EQ(runs.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    ASSERT_EQ(runs[c].size(), 3u);
    for (std::uint64_t s = 0; s < 3; ++s) {
      ExperimentConfig direct = configs[c];
      direct.seed = 40 + s;
      expect_identical(runs[c][s], run_experiment(direct), c * 3 + s);
    }
  }
}

TEST(RunOverSeedsTest, SameResultsAtJobsOneAndFour) {
  const std::vector<ExperimentConfig> configs = bench_grid();
  ParallelOptions one_job;
  one_job.jobs = 1;
  const auto serial = run_over_seeds(configs, 3, 40, one_job);
  const auto parallel = run_over_seeds(configs, 3, 40, four_jobs());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    ASSERT_EQ(parallel[c].size(), serial[c].size());
    for (std::size_t s = 0; s < serial[c].size(); ++s) {
      expect_identical(parallel[c][s], serial[c][s], c * 3 + s);
    }
  }
}

TEST(RunOverSeedsTest, ZeroSeedsThrows) {
  EXPECT_THROW(run_over_seeds(bench_grid(), 0, 42, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nvmsec
