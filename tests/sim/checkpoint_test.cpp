// Engine checkpoints (one-record journal files written through the
// snapshot policy), bit-identical resume, and sweep checkpoints (one
// appended record per finished run), including the refusal of every file
// kind where another is expected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/journal.h"
#include "sim/parallel.h"

namespace nvmsec {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFingerprint = 0x5EEDC0DEULL;
constexpr const char* kSubject = "configuration";

std::vector<std::uint8_t> sample_payload() {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<std::uint8_t>(i * 7));
  return payload;
}

std::string write_raw(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Result<std::vector<std::uint8_t>> load(const std::string& path) {
  return Journal::read_snapshot(path, kFingerprint, kSubject);
}

TEST(CheckpointFileTest, RoundTripsPayload) {
  const std::string path = ::testing::TempDir() + "/ckpt_roundtrip.bin";
  const std::vector<std::uint8_t> payload = sample_payload();
  ASSERT_TRUE(Journal::write_snapshot(path, kFingerprint, payload).ok());
  EXPECT_EQ(load(path).take(), payload);
}

TEST(CheckpointFileTest, RoundTripsEmptyPayload) {
  const std::string path = ::testing::TempDir() + "/ckpt_empty.bin";
  ASSERT_TRUE(Journal::write_snapshot(path, kFingerprint, {}).ok());
  EXPECT_TRUE(load(path).take().empty());
}

TEST(CheckpointFileTest, MissingFileIsNotFound) {
  const Result<std::vector<std::uint8_t>> r =
      load(::testing::TempDir() + "/ckpt_missing.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFileTest, BadMagicIsCorruption) {
  const std::string path = write_raw("ckpt_magic.bin", "NOTACKPTxxxxxxxxxxxx");
  const Result<std::vector<std::uint8_t>> r = load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("bad magic"), std::string::npos);
}

TEST(CheckpointFileTest, WrongVersionIsVersionMismatch) {
  std::string bytes(kJournalMagic, sizeof(kJournalMagic));
  // One past the current version, little-endian.
  const std::uint32_t wrong = kJournalVersion + 1;
  bytes += std::string{static_cast<char>(wrong & 0xff),
                       static_cast<char>((wrong >> 8) & 0xff),
                       static_cast<char>((wrong >> 16) & 0xff),
                       static_cast<char>((wrong >> 24) & 0xff)};
  bytes += std::string(8, '\x00');   // fingerprint
  bytes += std::string(16, '\x00');  // an empty record with a (wrong) CRC
  const std::string path = write_raw("ckpt_version.bin", bytes);
  const Result<std::vector<std::uint8_t>> r = load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kVersionMismatch);
  EXPECT_NE(r.status().message().find("version " + std::to_string(wrong)),
            std::string::npos);
}

TEST(CheckpointFileTest, TruncatedPayloadIsRejected) {
  const std::string path = ::testing::TempDir() + "/ckpt_trunc.bin";
  ASSERT_TRUE(
      Journal::write_snapshot(path, kFingerprint, sample_payload()).ok());
  std::string bytes = slurp(path);
  bytes.resize(bytes.size() - 10);
  const std::string cut = write_raw("ckpt_trunc_cut.bin", bytes);
  const Result<std::vector<std::uint8_t>> r = load(cut);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
}

TEST(CheckpointFileTest, FlippedPayloadByteIsCrcCorruption) {
  const std::string path = ::testing::TempDir() + "/ckpt_crc.bin";
  ASSERT_TRUE(
      Journal::write_snapshot(path, kFingerprint, sample_payload()).ok());
  std::string bytes = slurp(path);
  bytes[40] = static_cast<char>(bytes[40] ^ 0x40);  // inside the payload
  const std::string bad = write_raw("ckpt_crc_bad.bin", bytes);
  const Result<std::vector<std::uint8_t>> r = load(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("CRC"), std::string::npos);
}

ExperimentConfig maxwe_config() {
  ExperimentConfig c = scaled_stochastic_config(512, 32, 300.0);
  c.spare_scheme = "maxwe";
  return c;
}

TEST(ConfigFingerprintTest, IgnoresRunCapButTracksTrajectoryFields) {
  ExperimentConfig a = maxwe_config();
  ExperimentConfig b = a;
  // A capped checkpointing run stands in for the uncapped run it resumes
  // into, so the cap must not enter the fingerprint.
  b.max_user_writes = 12345;
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
  b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  b = a;
  b.attack = "bpa";
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  b = a;
  b.fault.device.stuck_at_lines = 1;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
}

TEST(CheckpointResumeTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const std::string path = ::testing::TempDir() + "/ckpt_resume.bin";
  fs::remove(path);
  const ExperimentConfig clean = maxwe_config();
  const LifetimeResult reference = run_experiment(clean);
  ASSERT_TRUE(reference.failed);

  // Phase 1: run the same config capped, dropping checkpoints on the way.
  ExperimentConfig capped = clean;
  capped.checkpoint_out = path;
  capped.checkpoint_interval = 2000;
  capped.max_user_writes = 5000;
  const LifetimeResult partial = run_experiment(capped);
  ASSERT_FALSE(partial.failed);
  ASSERT_TRUE(fs::exists(path));

  // Phase 2: resume uncapped from the last checkpoint; the trajectory must
  // rejoin the uninterrupted run exactly.
  ExperimentConfig resumed = clean;
  resumed.resume_from = path;
  const LifetimeResult result = run_experiment(resumed);
  EXPECT_DOUBLE_EQ(result.user_writes, reference.user_writes);
  EXPECT_EQ(result.overhead_writes, reference.overhead_writes);
  EXPECT_EQ(result.absorbed_writes, reference.absorbed_writes);
  EXPECT_EQ(result.device_writes, reference.device_writes);
  EXPECT_EQ(result.line_deaths, reference.line_deaths);
  EXPECT_DOUBLE_EQ(result.normalized, reference.normalized);
  EXPECT_EQ(result.failure_reason, reference.failure_reason);
}

TEST(CheckpointResumeTest, ResumeWithFaultsIsStillBitIdentical) {
  const std::string path = ::testing::TempDir() + "/ckpt_resume_fault.bin";
  fs::remove(path);
  ExperimentConfig clean = maxwe_config();
  clean.fault.metadata.flip_interval = 700;
  const LifetimeResult reference = run_experiment(clean);

  ExperimentConfig capped = clean;
  capped.checkpoint_out = path;
  capped.checkpoint_interval = 1500;
  capped.max_user_writes = 4000;
  run_experiment(capped);
  ASSERT_TRUE(fs::exists(path));

  ExperimentConfig resumed = clean;
  resumed.resume_from = path;
  const LifetimeResult result = run_experiment(resumed);
  EXPECT_DOUBLE_EQ(result.user_writes, reference.user_writes);
  EXPECT_EQ(result.line_deaths, reference.line_deaths);
  EXPECT_DOUBLE_EQ(result.normalized, reference.normalized);
}

TEST(CheckpointResumeTest, RefusesCheckpointFromDifferentConfig) {
  const std::string path = ::testing::TempDir() + "/ckpt_foreign.bin";
  fs::remove(path);
  ExperimentConfig writer = maxwe_config();
  writer.checkpoint_out = path;
  writer.checkpoint_interval = 1000;
  writer.max_user_writes = 2500;
  run_experiment(writer);
  ASSERT_TRUE(fs::exists(path));

  ExperimentConfig other = maxwe_config();
  other.seed = writer.seed + 17;
  other.resume_from = path;
  try {
    run_experiment(other);
    FAIL() << "expected a refusal to resume";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different configuration"),
              std::string::npos);
  }
}

TEST(CheckpointResumeTest, ChecksummedStateSurvivesConfigValidation) {
  ExperimentConfig c = maxwe_config();
  c.checkpoint_out = ::testing::TempDir() + "/ckpt_invalid.bin";
  c.checkpoint_interval = 0;  // interval missing
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c.checkpoint_out.clear();
  c.checkpoint_interval = 100;  // path missing
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c = maxwe_config();
  c.mode = SimulationMode::kUniformEvent;
  c.checkpoint_out = ::testing::TempDir() + "/ckpt_event.bin";
  c.checkpoint_interval = 100;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(SweepCheckpointTest, ResumeSkipsRecordedRunsAndMatchesResults) {
  const std::string path = ::testing::TempDir() + "/sweep_ckpt.bin";
  fs::remove(path);
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExperimentConfig c = maxwe_config();
    c.seed = seed;
    configs.push_back(c);
  }
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  const std::vector<LifetimeResult> first = run_experiments(configs, options);
  ASSERT_TRUE(fs::exists(path));

  // A resumed sweep replays the recorded results without re-running.
  options.resume = true;
  const std::vector<LifetimeResult> second = run_experiments(configs, options);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(second[i].user_writes, first[i].user_writes);
    EXPECT_EQ(second[i].line_deaths, first[i].line_deaths);
    EXPECT_DOUBLE_EQ(second[i].normalized, first[i].normalized);
    EXPECT_EQ(second[i].failure_reason, first[i].failure_reason);
  }

  // A config change at one index invalidates only that record.
  configs[1].seed = 99;
  const std::vector<LifetimeResult> third = run_experiments(configs, options);
  EXPECT_DOUBLE_EQ(third[0].user_writes, first[0].user_writes);
  EXPECT_NE(third[1].user_writes, first[1].user_writes);
  EXPECT_DOUBLE_EQ(third[2].user_writes, first[2].user_writes);
}

TEST(SweepCheckpointTest, ResumeWithoutPathIsRejected) {
  ParallelOptions options;
  options.resume = true;
  const std::vector<ExperimentConfig> configs(1, maxwe_config());
  EXPECT_THROW(run_experiments(configs, options), std::invalid_argument);
}

TEST(SweepCheckpointTest, MissingCheckpointFileIsAFreshStart) {
  const std::string path = ::testing::TempDir() + "/sweep_fresh.bin";
  fs::remove(path);
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  options.resume = true;  // nothing to resume from: run everything
  const std::vector<ExperimentConfig> configs(1, maxwe_config());
  const std::vector<LifetimeResult> results =
      run_experiments(configs, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].failed);
  EXPECT_TRUE(fs::exists(path));
}

std::vector<ExperimentConfig> seed_sweep(std::uint64_t runs) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= runs; ++seed) {
    ExperimentConfig c = maxwe_config();
    c.seed = seed;
    configs.push_back(c);
  }
  return configs;
}

void expect_same_results(const std::vector<LifetimeResult>& a,
                         const std::vector<LifetimeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].user_writes, b[i].user_writes) << "run " << i;
    EXPECT_EQ(a[i].device_writes, b[i].device_writes) << "run " << i;
    EXPECT_EQ(a[i].line_deaths, b[i].line_deaths) << "run " << i;
    EXPECT_DOUBLE_EQ(a[i].normalized, b[i].normalized) << "run " << i;
    EXPECT_DOUBLE_EQ(a[i].wear_gini, b[i].wear_gini) << "run " << i;
    EXPECT_EQ(a[i].failure_reason, b[i].failure_reason) << "run " << i;
  }
}

TEST(SweepCheckpointTest, ParallelSweepAppendsOneRecordPerRun) {
  const std::string path = ::testing::TempDir() + "/sweep_parallel.jrnl";
  fs::remove(path);
  const std::vector<ExperimentConfig> configs = seed_sweep(6);
  ParallelOptions options;
  options.jobs = 4;
  options.checkpoint_path = path;
  const std::vector<LifetimeResult> results =
      run_experiments(configs, options);

  // Header plus exactly one record per run, each keyed by its run index
  // and carrying that run's config fingerprint (records land in completion
  // order, so compare as a set).
  auto records =
      Journal::replay(path, kSweepJournalFingerprint, "kind of run");
  ASSERT_TRUE(records.ok()) << records.status().to_string();
  ASSERT_EQ(records.value().size(), configs.size());
  std::vector<int> seen(configs.size(), 0);
  std::uintmax_t framed_bytes = 20;
  for (const JournalRecord& rec : records.value()) {
    ASSERT_LT(rec.key, configs.size());
    ++seen[rec.key];
    StateReader r(rec.payload);
    std::uint64_t fingerprint = 0;
    ASSERT_TRUE(r.u64(fingerprint).ok());
    EXPECT_EQ(fingerprint, config_fingerprint(configs[rec.key]));
    framed_bytes += 16 + rec.payload.size();
  }
  EXPECT_EQ(seen, std::vector<int>(configs.size(), 1));
  EXPECT_EQ(fs::file_size(path), framed_bytes);

  // A jobs=1 resume replays every run from the file and appends nothing.
  const std::string before = slurp(path);
  options.jobs = 1;
  options.resume = true;
  expect_same_results(run_experiments(configs, options), results);
  EXPECT_EQ(slurp(path), before);
}

TEST(SweepCheckpointTest, FailedRunDoesNotStopTheSweep) {
  // Run 1 is invalid (BPA cannot run on the event engine). At every job
  // count the sweep still runs and journals runs 0 and 2, then rethrows
  // run 1's error.
  std::vector<ExperimentConfig> configs = seed_sweep(3);
  configs[1].mode = SimulationMode::kUniformEvent;
  configs[1].attack = "bpa";
  for (std::size_t jobs : {1u, 4u}) {
    const std::string path = ::testing::TempDir() + "/sweep_failed_run_" +
                             std::to_string(jobs) + ".jrnl";
    fs::remove(path);
    ParallelOptions options;
    options.jobs = jobs;
    options.checkpoint_path = path;
    try {
      run_experiments(configs, options);
      ADD_FAILURE() << "expected invalid_argument at jobs " << jobs;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bpa"), std::string::npos)
          << e.what();
    }
    auto records =
        Journal::replay(path, kSweepJournalFingerprint, "kind of run");
    ASSERT_TRUE(records.ok()) << records.status().to_string();
    std::vector<std::uint64_t> keys;
    for (const JournalRecord& rec : records.value()) keys.push_back(rec.key);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{0, 2})) << "jobs " << jobs;
  }
}

TEST(SweepCheckpointTest, TornTailIsTruncatedOnResume) {
  const std::string path = ::testing::TempDir() + "/sweep_torn.jrnl";
  fs::remove(path);
  const std::vector<ExperimentConfig> configs = seed_sweep(3);
  ParallelOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  const std::vector<LifetimeResult> first = run_experiments(configs, options);
  const std::string good = slurp(path);

  // A SIGKILL mid-append leaves half a record after the last good one.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << std::string("\x40\x00\x00\x00TORN-TAIL-GARBAGE", 21);
  }
  options.resume = true;
  expect_same_results(run_experiments(configs, options), first);
  EXPECT_EQ(slurp(path), good);
}

TEST(SweepCheckpointTest, EveryFileKindRefusesTheOthers) {
  const std::string dir = ::testing::TempDir();
  const std::string engine_path = dir + "/kinds_engine.ckpt";
  const std::string sweep_path = dir + "/kinds_sweep.jrnl";
  const std::string fleet_path = dir + "/kinds_fleet.jrnl";
  const std::string legacy_path =
      write_raw("kinds_legacy.ckpt", "MXWECKPT" + std::string(32, '\0'));
  for (const std::string& p : {engine_path, sweep_path, fleet_path}) {
    fs::remove(p);
  }

  ExperimentConfig engine = maxwe_config();
  engine.checkpoint_out = engine_path;
  engine.checkpoint_interval = 1000;
  engine.max_user_writes = 2500;
  run_experiment(engine);

  const std::vector<ExperimentConfig> sweep = seed_sweep(2);
  ParallelOptions sweep_options;
  sweep_options.jobs = 1;
  sweep_options.checkpoint_path = sweep_path;
  run_experiments(sweep, sweep_options);

  FleetSpec spec;
  spec.devices = 8;
  spec.shard_size = 4;
  spec.base.geometry = DeviceGeometry::scaled(256, 16);
  spec.base.endurance.endurance_at_mean = 200;
  spec.base.spare_scheme = "maxwe";
  FleetOptions fleet_options;
  fleet_options.checkpoint_path = fleet_path;
  (void)run_fleet(spec, fleet_options);

  // Each refusal is a Status error (carried by the exception the runner
  // throws) and leaves the refused file as it was.
  const auto expect_refused = [](const std::string& path, const auto& resume,
                                 const std::string& status,
                                 const std::string& reason) {
    const std::string before = slurp(path);
    try {
      resume(path);
      ADD_FAILURE() << "resume accepted " << path;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(status, 0), 0u) << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
    EXPECT_EQ(slurp(path), before) << path;
  };
  const auto resume_engine = [](const std::string& path) {
    ExperimentConfig c = maxwe_config();
    c.resume_from = path;
    run_experiment(c);
  };
  const auto resume_sweep = [&sweep](const std::string& path) {
    ParallelOptions o;
    o.jobs = 1;
    o.checkpoint_path = path;
    o.resume = true;
    run_experiments(sweep, o);
  };
  const auto resume_fleet = [&spec](const std::string& path) {
    FleetOptions o;
    o.checkpoint_path = path;
    o.resume = true;
    (void)run_fleet(spec, o);
  };
  const std::string foreign = "failed precondition: ";
  expect_refused(sweep_path, resume_engine, foreign, "different configuration");
  expect_refused(fleet_path, resume_engine, foreign, "different configuration");
  expect_refused(engine_path, resume_sweep, foreign, "different kind of run");
  expect_refused(fleet_path, resume_sweep, foreign, "different kind of run");
  expect_refused(engine_path, resume_fleet, foreign, "different population");
  expect_refused(sweep_path, resume_fleet, foreign, "different population");
  // Pre-journal MXWECKPT files, engine or sweep, are refused by name.
  const std::string legacy = "version mismatch: ";
  expect_refused(legacy_path, resume_engine, legacy, "MXWECKPT");
  expect_refused(legacy_path, resume_sweep, legacy, "MXWECKPT");
}

}  // namespace
}  // namespace nvmsec
