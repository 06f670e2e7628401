// Unit tests for the streaming attack detector: signal math on canonical
// traffic shapes, the hysteresis state machine, per-write vs. batched-run
// observation equivalence (the property that keeps event logs byte-
// identical across fastpath on/off), and checkpoint state round trips.
#include "detect/detector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "util/rng.h"
#include "util/serialize.h"

namespace nvmsec {
namespace {

constexpr std::uint64_t kLines = 1024;

DetectorParams small_params() {
  DetectorParams p;
  p.window_writes = 2048;
  p.coarse_buckets = 32;
  p.fine_buckets = 256;
  return p;
}

/// Feed one full window of a contiguous sweep (UAA shape).
void feed_sweep_window(AttackDetector& d) {
  for (std::uint64_t i = 0; i < 2048; ++i) d.observe(i % kLines);
}

/// Feed one full window hammering a single line (BPA/hotspot shape).
void feed_hammer_window(AttackDetector& d) {
  for (std::uint64_t i = 0; i < 2048; ++i) d.observe(17);
}

/// Feed one full window of scattered pseudo-random traffic (benign shape).
void feed_benign_window(AttackDetector& d, Rng& rng) {
  for (std::uint64_t i = 0; i < 2048; ++i) {
    d.observe(rng.uniform_u64(kLines));
  }
}

TEST(AttackDetectorTest, ConstructionValidation) {
  DetectorParams p = small_params();
  p.window_writes = 0;
  EXPECT_THROW(AttackDetector(p, kLines), std::invalid_argument);
  p = small_params();
  p.coarse_buckets = 0;
  EXPECT_THROW(AttackDetector(p, kLines), std::invalid_argument);
  p = small_params();
  p.fine_buckets = 0;
  EXPECT_THROW(AttackDetector(p, kLines), std::invalid_argument);
  EXPECT_THROW(AttackDetector(small_params(), 0), std::invalid_argument);
}

TEST(AttackDetectorTest, BucketResolutionClampedToAddressSpace) {
  DetectorParams p = small_params();
  p.coarse_buckets = 4096;
  p.fine_buckets = 4096;
  const AttackDetector d(p, 16);
  EXPECT_EQ(d.params().coarse_buckets, 16u);
  EXPECT_EQ(d.params().fine_buckets, 16u);
}

TEST(AttackDetectorTest, SweepWindowIsSweepAnomalous) {
  AttackDetector d(small_params(), kLines);
  feed_sweep_window(d);
  const WindowVerdict v = d.close_window();
  EXPECT_TRUE(v.anomalous);
  EXPECT_EQ(v.kind, AttackKind::kSweep);
  // A contiguous sweep is almost perfectly sequential and touches every
  // fine bucket.
  EXPECT_GT(v.sequential, 0.9);
  EXPECT_GT(v.occupancy, 0.9);
}

TEST(AttackDetectorTest, HammerWindowIsConcentrationAnomalous) {
  AttackDetector d(small_params(), kLines);
  feed_hammer_window(d);
  const WindowVerdict v = d.close_window();
  EXPECT_TRUE(v.anomalous);
  EXPECT_EQ(v.kind, AttackKind::kConcentration);
  // One line touched => one fine bucket of the 256 reachable.
  EXPECT_LT(v.occupancy, 0.01);
}

TEST(AttackDetectorTest, ScatteredTrafficIsNormal) {
  AttackDetector d(small_params(), kLines);
  Rng rng(7);
  feed_benign_window(d, rng);
  const WindowVerdict v = d.close_window();
  EXPECT_FALSE(v.anomalous);
  EXPECT_EQ(v.kind, AttackKind::kNone);
  // i.i.d. uniform traffic: the normalized chi-square concentrates near 1.
  EXPECT_GT(v.uniformity, 0.5);
  EXPECT_LT(v.uniformity, 2.0);
}

TEST(AttackDetectorTest, EmptyWindowIsNormal) {
  AttackDetector d(small_params(), kLines);
  const WindowVerdict v = d.close_window();
  EXPECT_FALSE(v.anomalous);
  EXPECT_EQ(v.writes, 0u);
  EXPECT_EQ(d.level(), AlarmLevel::kBenign);
}

TEST(AttackDetectorTest, HysteresisRaisesAfterConsecutiveAnomalies) {
  AttackDetector d(small_params(), kLines);  // kRaiseWindows = 2
  feed_sweep_window(d);
  d.close_window();
  EXPECT_EQ(d.level(), AlarmLevel::kSuspicious);
  feed_sweep_window(d);
  d.close_window();
  EXPECT_EQ(d.level(), AlarmLevel::kUnderAttack);
  EXPECT_EQ(d.kind(), AttackKind::kSweep);
  EXPECT_EQ(d.alarms_raised(), 1u);
}

TEST(AttackDetectorTest, SingleNormalWindowKillsPendingRaise) {
  AttackDetector d(small_params(), kLines);
  Rng rng(11);
  feed_sweep_window(d);
  d.close_window();
  ASSERT_EQ(d.level(), AlarmLevel::kSuspicious);
  feed_benign_window(d, rng);
  d.close_window();
  EXPECT_EQ(d.level(), AlarmLevel::kBenign);
  EXPECT_EQ(d.kind(), AttackKind::kNone);
  EXPECT_EQ(d.alarms_raised(), 0u);
}

TEST(AttackDetectorTest, AlarmClearsOnlyAfterClearWindows) {
  AttackDetector d(small_params(), kLines);  // kClearWindows = 4
  Rng rng(13);
  feed_sweep_window(d);
  d.close_window();
  feed_sweep_window(d);
  d.close_window();
  ASSERT_EQ(d.level(), AlarmLevel::kUnderAttack);
  for (int i = 0; i < 3; ++i) {
    feed_benign_window(d, rng);
    d.close_window();
    EXPECT_EQ(d.level(), AlarmLevel::kUnderAttack) << "after " << i + 1;
  }
  feed_benign_window(d, rng);
  d.close_window();
  EXPECT_EQ(d.level(), AlarmLevel::kBenign);
  // The raise window + 3 benign windows closed while still in alarm (the
  // 4th clears the level before the stat is taken).
  EXPECT_EQ(d.windows_in_alarm(), 4u);
}

TEST(AttackDetectorTest, WindowClockCapsAtBoundaries) {
  AttackDetector d(small_params(), kLines);
  EXPECT_FALSE(d.window_due(0));
  EXPECT_EQ(d.writes_until_window(0), 2048u);
  EXPECT_EQ(d.writes_until_window(2000), 48u);
  EXPECT_TRUE(d.window_due(2048));
  EXPECT_EQ(d.writes_until_window(2048), 0u);
  d.close_window();
  EXPECT_FALSE(d.window_due(2048));
  EXPECT_EQ(d.writes_until_window(2048), 2048u);
  // Boundaries are absolute multiples: a jump past several boundaries
  // leaves the window due until each one is drained.
  EXPECT_TRUE(d.window_due(3 * 2048));
  d.close_window();
  EXPECT_TRUE(d.window_due(3 * 2048));
}

TEST(AttackDetectorTest, RunObservationMatchesPerWriteExactly) {
  AttackDetector per_write(small_params(), kLines);
  AttackDetector runs(small_params(), kLines);

  // Sweep segment (stride 1), then a hammered address (stride 0), then a
  // strided scatter — the three run shapes the fast path emits.
  for (std::uint64_t i = 0; i < 700; ++i) per_write.observe(100 + i);
  runs.observe_run(100, 700, 1);
  for (std::uint64_t i = 0; i < 600; ++i) per_write.observe(42);
  runs.observe_run(42, 600, 0);
  for (std::uint64_t i = 0; i < 100; ++i) per_write.observe(3 + i * 7);
  runs.observe_run(3, 100, 7);

  const WindowVerdict a = per_write.close_window();
  const WindowVerdict b = runs.close_window();
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.uniformity, b.uniformity);  // bit-exact, not approximate
  EXPECT_EQ(a.occupancy, b.occupancy);
  EXPECT_EQ(a.sequential, b.sequential);
  EXPECT_EQ(a.anomalous, b.anomalous);
  EXPECT_EQ(a.kind, b.kind);

  // The serialized states must agree byte for byte: this is what makes
  // detector checkpoints interchangeable across fastpath on/off for
  // bit-identical attacks.
  StateWriter wa, wb;
  per_write.save_state(wa);
  runs.save_state(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(AttackDetectorTest, RunSpanningBucketBoundariesMatchesPerWrite) {
  // Address space not divisible by the bucket counts: the analytic range
  // update must agree with per-write adds on the ragged bucket edges.
  DetectorParams p = small_params();
  p.coarse_buckets = 7;
  p.fine_buckets = 13;
  AttackDetector per_write(p, 999);
  AttackDetector runs(p, 999);
  for (std::uint64_t i = 0; i < 999; ++i) per_write.observe(i);
  runs.observe_run(0, 999, 1);
  const WindowVerdict a = per_write.close_window();
  const WindowVerdict b = runs.close_window();
  EXPECT_EQ(a.uniformity, b.uniformity);
  EXPECT_EQ(a.occupancy, b.occupancy);
  EXPECT_EQ(a.sequential, b.sequential);
}

TEST(AttackDetectorTest, CountVectorResetsSequentialTracking) {
  AttackDetector d(small_params(), kLines);
  d.observe(10);
  WriteCountVector counts;
  counts.addrs = {11, 500};
  counts.counts = {1, 3};
  d.observe_counts(counts);
  // A multinomial chunk is an unordered multiset: address 11 right after
  // 10 must NOT count as a sequential step, and neither must the next
  // per-write observation (the chain restarts).
  d.observe(501);
  const WindowVerdict v = d.close_window();
  EXPECT_EQ(v.writes, 6u);
  EXPECT_EQ(v.sequential, 0.0);
}

TEST(AttackDetectorTest, StateRoundTripsMidWindow) {
  AttackDetector d(small_params(), kLines);
  Rng rng(5);
  // Commit some history (one alarm raise) plus a half-filled window.
  feed_sweep_window(d);
  d.close_window();
  feed_sweep_window(d);
  d.close_window();
  for (std::uint64_t i = 0; i < 1000; ++i) d.observe(i);

  StateWriter w;
  d.save_state(w);
  AttackDetector restored(small_params(), kLines);
  StateReader r(w.buffer());
  ASSERT_TRUE(restored.load_state(r).ok());
  EXPECT_TRUE(r.exhausted());

  // Both copies must agree on the next verdict and all running stats.
  for (std::uint64_t i = 1000; i < 2048; ++i) {
    d.observe(i % kLines);
    restored.observe(i % kLines);
  }
  const WindowVerdict a = d.close_window();
  const WindowVerdict b = restored.close_window();
  EXPECT_EQ(a.uniformity, b.uniformity);
  EXPECT_EQ(a.sequential, b.sequential);
  EXPECT_EQ(a.level_after, b.level_after);
  EXPECT_EQ(d.alarms_raised(), restored.alarms_raised());
  EXPECT_EQ(d.windows_in_alarm(), restored.windows_in_alarm());
  EXPECT_EQ(d.windows_closed(), restored.windows_closed());
}

TEST(AttackDetectorTest, LoadRejectsResolutionMismatch) {
  AttackDetector d(small_params(), kLines);
  StateWriter w;
  d.save_state(w);
  DetectorParams other = small_params();
  other.coarse_buckets = 16;
  AttackDetector mismatched(other, kLines);
  StateReader r(w.buffer());
  EXPECT_FALSE(mismatched.load_state(r).ok());
}

}  // namespace
}  // namespace nvmsec
