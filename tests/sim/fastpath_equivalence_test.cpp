// The batched fast path's equivalence contract, per attack class:
//
//   * kBitIdentical (uaa/bpa): with and without --no-fastpath a run must
//     produce the same LifetimeResult, the same decision-event bytes, the
//     same snapshot series, and the same checkpoint payloads — across the
//     full attack x wear-leveler x spare-scheme grid, with a DRAM buffer,
//     under metadata fault injection, and across cross-mode resume.
//   * kMultisetExact (hotspot): the batched run issues the exact write
//     multiset of the per-write run; only intra-chunk ordering may differ,
//     so lifetimes sit in a tight band (and ws=1 stays bit-identical).
//   * kDistributionEquivalent (zipf/random): the batched run draws count
//     vectors from a dedicated RNG substream — same law, different stream.
//     Each mode must be individually deterministic, the lifetimes must
//     agree within a sampling band, and across many seeds the two modes'
//     lifetime distributions must pass a two-sample KS test.
//
// Combinations where the count-vector path cannot engage (a wear leveler's
// remap horizon below the minimum chunk, or a spare scheme with uncacheable
// resolves) remain bit-identical even for stochastic attacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "obs/event_log.h"
#include "obs/session.h"
#include "obs/snapshot.h"
#include "sim/experiment.h"

namespace nvmsec {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Small-but-representative configuration: regions carry distinct
/// endurances, every scheme has a non-trivial spare budget, and the cap
/// bounds combinations that would otherwise sweep forever.
ExperimentConfig base_config() {
  ExperimentConfig config = scaled_stochastic_config(256, 16, 300.0);
  config.spare_fraction = 0.25;
  config.swr_fraction = 0.5;
  config.max_user_writes = 120'000;
  return config;
}

struct RunOutput {
  LifetimeResult result;
  std::string events;
  std::string snapshots;
};

RunOutput run_once(ExperimentConfig config, bool fastpath,
                   WriteCount snapshot_interval = 0) {
  config.fastpath = fastpath;
  std::ostringstream events_out;
  EventLog events(events_out);
  config.observer.events = &events;
  std::ostringstream snap_out;
  std::unique_ptr<SnapshotEmitter> snapshots;
  if (snapshot_interval > 0) {
    snapshots = std::make_unique<SnapshotEmitter>(snap_out, snapshot_interval);
    config.observer.snapshots = snapshots.get();
  }
  RunOutput out;
  out.result = run_experiment(config);
  out.events = events_out.str();
  out.snapshots = snap_out.str();
  return out;
}

void expect_identical(const RunOutput& fast, const RunOutput& slow,
                      const std::string& label) {
  EXPECT_EQ(fast.result.user_writes, slow.result.user_writes) << label;
  EXPECT_EQ(fast.result.overhead_writes, slow.result.overhead_writes) << label;
  EXPECT_EQ(fast.result.absorbed_writes, slow.result.absorbed_writes) << label;
  EXPECT_EQ(fast.result.device_writes, slow.result.device_writes) << label;
  EXPECT_EQ(fast.result.line_deaths, slow.result.line_deaths) << label;
  EXPECT_EQ(fast.result.failed, slow.result.failed) << label;
  EXPECT_EQ(fast.result.failure_reason, slow.result.failure_reason) << label;
  EXPECT_DOUBLE_EQ(fast.result.normalized, slow.result.normalized) << label;
  EXPECT_FALSE(fast.events.empty()) << label;
  EXPECT_EQ(fast.events, slow.events) << label;
  EXPECT_EQ(fast.snapshots, slow.snapshots) << label;
}

/// Band check for distribution-equivalent combinations: both modes finish,
/// and the lifetimes agree within `tol` relative (sampling noise only).
void expect_band(const RunOutput& fast, const RunOutput& slow,
                 const std::string& label, double tol) {
  EXPECT_FALSE(fast.events.empty()) << label;
  ASSERT_GT(slow.result.user_writes, 0u) << label;
  const double ratio = static_cast<double>(fast.result.user_writes) /
                       static_cast<double>(slow.result.user_writes);
  EXPECT_NEAR(ratio, 1.0, tol)
      << label << " fast=" << fast.result.user_writes
      << " slow=" << slow.result.user_writes;
}

/// Does the count-vector path engage for this combination? It needs the
/// never-remapping horizon (any real wear leveler's swap cadence is far
/// below the minimum chunk) and a cacheable resolve (freep's is not).
bool counts_path_engages(const ExperimentConfig& config) {
  return config.wear_leveler == "none" && config.spare_scheme != "freep" &&
         config.dram_buffer_lines == 0;
}

// One test per attack keeps failures attributable and lets ctest schedule
// them; each sweeps the full wear-leveler x spare-scheme grid. Stochastic
// attacks get band + per-mode-determinism checks exactly where the count
// path engages, bit-identity everywhere else. Hotspot's default working
// set (one line) needs no RNG even when batched, so it stays bit-identical
// across the whole grid; its multi-line band lives in its own test below.
void sweep_attack(const std::string& attack) {
  const bool distribution_equivalent =
      attack_batch_contract(attack) == BatchContract::kDistributionEquivalent;
  for (const std::string wl :
       {"none", "startgap", "tlsr", "pcms", "bwl", "twl", "wawl"}) {
    for (const std::string spare : {"none", "pcd", "ps", "freep", "maxwe"}) {
      ExperimentConfig config = base_config();
      config.attack = attack;
      config.wear_leveler = wl;
      config.spare_scheme = spare;
      const std::string label = attack + "/" + wl + "/" + spare;
      const RunOutput fast = run_once(config, /*fastpath=*/true);
      const RunOutput slow = run_once(config, /*fastpath=*/false);
      if (distribution_equivalent && counts_path_engages(config)) {
        const RunOutput fast_again = run_once(config, /*fastpath=*/true);
        expect_identical(fast, fast_again, label + "/fast-determinism");
        const RunOutput slow_again = run_once(config, /*fastpath=*/false);
        expect_identical(slow, slow_again, label + "/perwrite-determinism");
        expect_band(fast, slow, label, /*tol=*/0.25);
      } else {
        expect_identical(fast, slow, label);
      }
    }
  }
}

TEST(FastPathEquivalenceTest, UaaMatrix) { sweep_attack("uaa"); }
TEST(FastPathEquivalenceTest, BpaMatrix) { sweep_attack("bpa"); }
TEST(FastPathEquivalenceTest, ZipfMatrix) { sweep_attack("zipf"); }
TEST(FastPathEquivalenceTest, HotspotMatrix) { sweep_attack("hotspot"); }
TEST(FastPathEquivalenceTest, RandomMatrix) { sweep_attack("random"); }

TEST(FastPathEquivalenceTest, SnapshotSeriesIsByteIdentical) {
  for (const std::string attack : {"uaa", "bpa"}) {
    ExperimentConfig config = base_config();
    config.attack = attack;
    config.wear_leveler = "startgap";
    config.spare_scheme = "maxwe";
    const RunOutput fast =
        run_once(config, /*fastpath=*/true, /*snapshot_interval=*/700);
    const RunOutput slow =
        run_once(config, /*fastpath=*/false, /*snapshot_interval=*/700);
    EXPECT_FALSE(fast.snapshots.empty());
    expect_identical(fast, slow, attack + "/snapshots");
  }
}

TEST(FastPathEquivalenceTest, DramBufferRunsAgree) {
  ExperimentConfig config = base_config();
  config.attack = "bpa";
  config.wear_leveler = "startgap";
  config.spare_scheme = "maxwe";
  config.dram_buffer_lines = 16;
  config.max_user_writes = 60'000;
  const RunOutput fast = run_once(config, /*fastpath=*/true);
  const RunOutput slow = run_once(config, /*fastpath=*/false);
  expect_identical(fast, slow, "buffered");
  EXPECT_GT(fast.result.absorbed_writes, 0u);
}

TEST(FastPathEquivalenceTest, MetadataFaultInjectionRunsAgree) {
  ExperimentConfig config = base_config();
  config.attack = "uaa";
  config.wear_leveler = "startgap";
  config.spare_scheme = "maxwe";
  config.fault.metadata.flip_interval = 500;
  const RunOutput fast = run_once(config, /*fastpath=*/true);
  const RunOutput slow = run_once(config, /*fastpath=*/false);
  expect_identical(fast, slow, "metadata-faults");
}

TEST(FastPathEquivalenceTest, DeviceFaultPlanRunsAgree) {
  ExperimentConfig config = base_config();
  config.attack = "uaa";
  config.wear_leveler = "pcms";
  config.spare_scheme = "maxwe";
  config.fault.device.early_death_lines = 8;
  config.fault.device.early_death_fraction = 0.3;
  const RunOutput fast = run_once(config, /*fastpath=*/true);
  const RunOutput slow = run_once(config, /*fastpath=*/false);
  expect_identical(fast, slow, "device-faults");
}

TEST(FastPathEquivalenceTest, CheckpointPayloadsAreBitIdentical) {
  const std::string fast_ckpt = temp_path("fastpath_eq_fast.ckpt");
  const std::string slow_ckpt = temp_path("fastpath_eq_slow.ckpt");
  std::filesystem::remove(fast_ckpt);
  std::filesystem::remove(slow_ckpt);

  ExperimentConfig config = base_config();
  config.attack = "uaa";
  config.wear_leveler = "startgap";
  config.spare_scheme = "maxwe";
  config.checkpoint_interval = 3'000;

  ExperimentConfig fast_config = config;
  fast_config.fastpath = true;
  fast_config.checkpoint_out = fast_ckpt;
  ExperimentConfig slow_config = config;
  slow_config.fastpath = false;
  slow_config.checkpoint_out = slow_ckpt;
  run_experiment(fast_config);
  run_experiment(slow_config);

  const std::string fast_bytes = slurp(fast_ckpt);
  const std::string slow_bytes = slurp(slow_ckpt);
  EXPECT_FALSE(fast_bytes.empty());
  // Same fingerprint, same progress counters, same RNG stream, same
  // component state: the final checkpoint file is byte-for-byte the same.
  EXPECT_EQ(fast_bytes, slow_bytes);

  std::filesystem::remove(fast_ckpt);
  std::filesystem::remove(slow_ckpt);
}

TEST(FastPathEquivalenceTest, CrossModeResumeIsBitIdentical) {
  // A checkpoint written by the fast path resumes under the per-write path
  // (and vice versa), landing on the per-write reference's event bytes —
  // the fastpath flag is deliberately outside the config fingerprint.
  const std::string ref_events = temp_path("fastpath_eq_ref.events.jsonl");
  const std::string ref_ckpt = temp_path("fastpath_eq_ref.ckpt");

  ExperimentConfig base = base_config();
  base.attack = "uaa";
  base.wear_leveler = "startgap";
  base.spare_scheme = "maxwe";
  base.checkpoint_interval = 2'000;

  std::filesystem::remove(ref_events);
  std::filesystem::remove(ref_ckpt);
  {
    ExperimentConfig config = base;
    config.fastpath = false;
    config.checkpoint_out = ref_ckpt;
    ObsConfig obs_config;
    obs_config.events_path = ref_events;
    ObsSession session(obs_config);
    config.observer = session.observer();
    run_experiment(config);
    session.finalize();
  }
  const std::string reference = slurp(ref_events);
  ASSERT_FALSE(reference.empty());

  for (const bool first_fast : {true, false}) {
    const std::string events = temp_path("fastpath_eq_res.events.jsonl");
    const std::string ckpt = temp_path("fastpath_eq_res.ckpt");
    std::filesystem::remove(events);
    std::filesystem::remove(ckpt);
    {
      ExperimentConfig config = base;
      config.fastpath = first_fast;
      config.checkpoint_out = ckpt;
      config.max_user_writes = 7'000;  // interrupt mid-run
      ObsConfig obs_config;
      obs_config.events_path = events;
      ObsSession session(obs_config);
      config.observer = session.observer();
      run_experiment(config);
      session.finalize();
    }
    {
      ExperimentConfig config = base;
      config.fastpath = !first_fast;  // switch modes across the resume
      config.checkpoint_out = ckpt;
      config.resume_from = ckpt;
      ObsConfig obs_config;
      obs_config.events_path = events;
      obs_config.resume = true;
      ObsSession session(obs_config);
      config.observer = session.observer();
      run_experiment(config);
      session.finalize();
    }
    EXPECT_EQ(slurp(events), reference)
        << (first_fast ? "fast->perwrite" : "perwrite->fast");
    std::filesystem::remove(events);
    std::filesystem::remove(ckpt);
  }

  std::filesystem::remove(ref_events);
  std::filesystem::remove(ref_ckpt);
}


TEST(FastPathEquivalenceTest, HotspotWorkingSetMultisetBand) {
  // A multi-line hotspot batches deterministic count vectors (no RNG):
  // the write multiset is exact, so the only divergence from per-write is
  // intra-chunk ordering, and the lifetimes sit in a tight band.
  ExperimentConfig config = base_config();
  config.attack = "hotspot";
  config.hotspot_working_set = 8;
  config.wear_leveler = "none";
  config.spare_scheme = "maxwe";
  const RunOutput fast = run_once(config, /*fastpath=*/true);
  const RunOutput fast_again = run_once(config, /*fastpath=*/true);
  expect_identical(fast, fast_again, "hotspot-ws8/determinism");
  const RunOutput slow = run_once(config, /*fastpath=*/false);
  expect_band(fast, slow, "hotspot-ws8", /*tol=*/0.15);
}

// Two-sample Kolmogorov–Smirnov over per-seed lifetimes: the batched and
// per-write modes draw from different RNG streams but must follow the same
// law. D_crit = c(alpha) * sqrt((n+m)/(n*m)) with c(0.01) = 1.628; a fixed
// seed set keeps the check deterministic.
void ks_compare(const std::string& attack) {
  constexpr int kSeeds = 24;
  std::vector<double> fast_lifetimes, slow_lifetimes;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    ExperimentConfig config = base_config();
    config.attack = attack;
    config.wear_leveler = "none";
    config.spare_scheme = "maxwe";
    config.seed = static_cast<std::uint64_t>(seed);
    config.fastpath = true;
    fast_lifetimes.push_back(
        static_cast<double>(run_experiment(config).user_writes));
    config.fastpath = false;
    slow_lifetimes.push_back(
        static_cast<double>(run_experiment(config).user_writes));
  }
  std::sort(fast_lifetimes.begin(), fast_lifetimes.end());
  std::sort(slow_lifetimes.begin(), slow_lifetimes.end());
  double d_max = 0.0;
  std::size_t i = 0, j = 0;
  while (i < fast_lifetimes.size() && j < slow_lifetimes.size()) {
    if (fast_lifetimes[i] <= slow_lifetimes[j]) {
      ++i;
    } else {
      ++j;
    }
    const double f1 = static_cast<double>(i) / kSeeds;
    const double f2 = static_cast<double>(j) / kSeeds;
    d_max = std::max(d_max, std::abs(f1 - f2));
  }
  const double d_crit = 1.628 * std::sqrt(2.0 / kSeeds);
  EXPECT_LT(d_max, d_crit) << attack << ": batched and per-write lifetime "
                           << "distributions diverge";
}

TEST(FastPathEquivalenceTest, ZipfLifetimeDistributionMatchesKS) {
  ks_compare("zipf");
}
TEST(FastPathEquivalenceTest, RandomLifetimeDistributionMatchesKS) {
  ks_compare("random");
}

TEST(FastPathEquivalenceTest, StochasticSameModeResumeIsBitIdentical) {
  // The sampling substream is checkpointed and chunks never straddle a
  // checkpoint boundary, so a SIGKILLed batched zipf run resumed in the
  // same mode replays the uninterrupted run byte for byte.
  const std::string ref_events = temp_path("fastpath_eq_zipf_ref.jsonl");
  const std::string ref_ckpt = temp_path("fastpath_eq_zipf_ref.ckpt");

  ExperimentConfig base = base_config();
  base.attack = "zipf";
  base.wear_leveler = "none";
  base.spare_scheme = "maxwe";
  base.checkpoint_interval = 2'000;
  base.fastpath = true;

  std::filesystem::remove(ref_events);
  std::filesystem::remove(ref_ckpt);
  {
    ExperimentConfig config = base;
    config.checkpoint_out = ref_ckpt;
    ObsConfig obs_config;
    obs_config.events_path = ref_events;
    ObsSession session(obs_config);
    config.observer = session.observer();
    run_experiment(config);
    session.finalize();
  }
  const std::string reference = slurp(ref_events);
  ASSERT_FALSE(reference.empty());

  const std::string events = temp_path("fastpath_eq_zipf_res.jsonl");
  const std::string ckpt = temp_path("fastpath_eq_zipf_res.ckpt");
  std::filesystem::remove(events);
  std::filesystem::remove(ckpt);
  {
    ExperimentConfig config = base;
    config.checkpoint_out = ckpt;
    config.max_user_writes = 7'000;  // interrupt mid-run
    ObsConfig obs_config;
    obs_config.events_path = events;
    ObsSession session(obs_config);
    config.observer = session.observer();
    run_experiment(config);
    session.finalize();
  }
  {
    ExperimentConfig config = base;
    config.checkpoint_out = ckpt;
    config.resume_from = ckpt;
    ObsConfig obs_config;
    obs_config.events_path = events;
    obs_config.resume = true;
    ObsSession session(obs_config);
    config.observer = session.observer();
    run_experiment(config);
    session.finalize();
  }
  EXPECT_EQ(slurp(events), reference);

  std::filesystem::remove(events);
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ref_events);
  std::filesystem::remove(ref_ckpt);
}

TEST(FastPathEquivalenceTest, StochasticCrossModeResumeCompletes) {
  // Across modes the zipf suffix is only distribution-equivalent, so no
  // byte-identity — but the resume must be accepted (fastpath is outside
  // the fingerprint), must finish the run, and must itself be
  // deterministic: resuming the same checkpoint twice gives equal results.
  const std::string ckpt = temp_path("fastpath_eq_zipf_cross.ckpt");

  ExperimentConfig base = base_config();
  base.attack = "zipf";
  base.wear_leveler = "none";
  base.spare_scheme = "maxwe";

  for (const bool first_fast : {true, false}) {
    std::filesystem::remove(ckpt);
    {
      ExperimentConfig config = base;
      config.fastpath = first_fast;
      config.checkpoint_out = ckpt;
      config.checkpoint_interval = 2'000;
      config.max_user_writes = 7'000;
      run_experiment(config);
    }
    ExperimentConfig config = base;
    config.fastpath = !first_fast;
    config.resume_from = ckpt;
    const LifetimeResult first = run_experiment(config);
    const LifetimeResult second = run_experiment(config);
    const std::string label = first_fast ? "fast->perwrite" : "perwrite->fast";
    EXPECT_TRUE(first.failed) << label;
    EXPECT_GT(first.user_writes, 7'000u) << label;
    EXPECT_EQ(first.user_writes, second.user_writes) << label;
    EXPECT_EQ(first.line_deaths, second.line_deaths) << label;
    std::filesystem::remove(ckpt);
  }
}

}  // namespace
}  // namespace nvmsec
