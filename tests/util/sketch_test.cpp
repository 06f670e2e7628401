// Tests for the streaming statistics sketches (util/sketch.h): quantile
// accuracy against exact sorts on several distribution shapes, merge
// algebra, Welford vs two-pass variance, reservoir sampling properties,
// and the serialize -> deserialize -> merge bit-identity the fleet
// checkpoint machinery depends on.
#include "util/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace nvmsec {
namespace {

std::vector<double> uniform_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform_double();
  return xs;
}

std::vector<double> zipf_like_samples(std::size_t n, std::uint64_t seed) {
  // Heavy right tail: x = u^-2 for uniform u (Pareto with alpha = 0.5).
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    const double u = std::max(1e-9, rng.uniform_double());
    x = 1.0 / (u * u);
  }
  return xs;
}

std::vector<double> bimodal_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    x = rng.uniform_double() < 0.5 ? 10.0 + rng.uniform_double()
                                   : 1000.0 + rng.uniform_double();
  }
  return xs;
}

/// Exact quantile with the same midpoint-interpolation convention as the
/// sketch (close enough for rank-tolerance checks).
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * (static_cast<double>(xs.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/// Rank of `value` in the sample, in [0, 1].
double rank_of(std::vector<double> xs, double value) {
  std::sort(xs.begin(), xs.end());
  const auto below =
      std::lower_bound(xs.begin(), xs.end(), value) - xs.begin();
  return static_cast<double>(below) / static_cast<double>(xs.size());
}

// The documented sketch tolerance: estimated quantiles land within a 1.5%
// *rank* band of the request at compression 128 (rank error is the
// t-digest guarantee; value error depends on the local density).
constexpr double kRankTolerance = 0.015;

void expect_quantiles_close(const std::vector<double>& xs,
                            const char* label) {
  QuantileSketch sketch;
  for (double x : xs) sketch.add(x);
  for (double q : {0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const double est = sketch.quantile(q);
    EXPECT_NEAR(rank_of(xs, est), q, kRankTolerance)
        << label << " q=" << q << " estimate=" << est
        << " exact=" << exact_quantile(xs, q);
  }
}

TEST(QuantileSketch, UniformAccuracy) {
  expect_quantiles_close(uniform_samples(20000, 1), "uniform");
}

TEST(QuantileSketch, ZipfTailAccuracy) {
  expect_quantiles_close(zipf_like_samples(20000, 2), "zipf");
}

TEST(QuantileSketch, BimodalAccuracy) {
  expect_quantiles_close(bimodal_samples(20000, 3), "bimodal");
}

TEST(QuantileSketch, ExactExtremesAndSmallStreams) {
  QuantileSketch s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  EXPECT_EQ(s.quantile(0.0), 1.0);
  EXPECT_EQ(s.quantile(1.0), 5.0);
  EXPECT_EQ(s.quantile(0.5), 3.0);  // one centroid per point
  EXPECT_EQ(s.count(), 3u);
}

TEST(QuantileSketch, EmptyAndRangeChecks) {
  const QuantileSketch s;
  EXPECT_THROW((void)s.quantile(0.5), std::invalid_argument);
  QuantileSketch t;
  t.add(1.0);
  EXPECT_THROW((void)t.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)t.quantile(1.1), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(0), std::invalid_argument);
}

TEST(QuantileSketch, MergeMatchesCombinedAccuracy) {
  const std::vector<double> a = uniform_samples(8000, 10);
  const std::vector<double> b = zipf_like_samples(8000, 11);
  QuantileSketch sa, sb;
  for (double x : a) sa.add(x);
  for (double x : b) sb.add(x);
  sa.merge(sb);

  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_EQ(sa.count(), all.size());
  for (double q : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(rank_of(all, sa.quantile(q)), q, kRankTolerance) << q;
  }
}

TEST(QuantileSketch, MergeEmptyIsExactIdentityBothDirections) {
  QuantileSketch full;
  for (double x : uniform_samples(5000, 42)) full.add(x);
  StateWriter before;
  full.save_state(before);

  // Empty other is a no-op, byte for byte.
  full.merge(QuantileSketch());
  StateWriter after_noop;
  full.save_state(after_noop);
  EXPECT_EQ(before.buffer(), after_noop.buffer());

  // Empty this adopts other's representation (compression included) — a
  // rebuilt partition would not serialize identically, adoption must.
  QuantileSketch empty(64);
  empty.merge(full);
  StateWriter adopted;
  empty.save_state(adopted);
  EXPECT_EQ(before.buffer(), adopted.buffer());
  EXPECT_EQ(empty.compression(), full.compression());
}

TEST(QuantileSketch, SingleElementMergeIsExact) {
  QuantileSketch one;
  one.add(7.5);
  QuantileSketch target;
  target.merge(one);
  StateWriter w1, w2;
  one.save_state(w1);
  target.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(target.count(), 1u);
  EXPECT_EQ(target.quantile(0.5), 7.5);
  EXPECT_EQ(target.min(), 7.5);
  EXPECT_EQ(target.max(), 7.5);
}

TEST(StreamSummary, MergeEmptyIsExactIdentityBothDirections) {
  StreamSummary full;
  for (double x : zipf_like_samples(3000, 9)) full.add(x);
  StateWriter before;
  full.save_state(before);

  full.merge(StreamSummary());
  StateWriter after_noop;
  full.save_state(after_noop);
  EXPECT_EQ(before.buffer(), after_noop.buffer());

  StreamSummary empty;
  empty.merge(full);
  StateWriter adopted;
  empty.save_state(adopted);
  EXPECT_EQ(before.buffer(), adopted.buffer());
}

TEST(StreamSummary, SingleElementMergePreservesMoments) {
  StreamSummary one;
  one.add(3.0);
  StreamSummary target;
  target.merge(one);
  EXPECT_EQ(target.count(), 1u);
  EXPECT_EQ(target.mean(), 3.0);
  EXPECT_EQ(target.variance(), 0.0);
  EXPECT_EQ(target.min(), 3.0);
  EXPECT_EQ(target.max(), 3.0);
  StateWriter w1, w2;
  one.save_state(w1);
  target.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
}

TEST(QuantileSketch, BoundedMemory) {
  // The q*(1-q) cluster bound admits singleton clusters in the far tails,
  // so the centroid count is O(compression * log(n / compression)) — for
  // n = 1e5 at compression 64 that is a few hundred centroids, vs 1e5
  // retained points for an exact sort.
  QuantileSketch s(64);
  for (int i = 0; i < 100000; ++i) s.add(static_cast<double>(i % 977));
  s.compress();
  EXPECT_LE(s.centroids().size(), 8u * 64u);

  // And it grows logarithmically, not linearly: 4x the data should add
  // well under 4x the centroids.
  QuantileSketch big(64);
  for (int i = 0; i < 400000; ++i) big.add(static_cast<double>(i % 977));
  big.compress();
  EXPECT_LE(big.centroids().size(), 2u * s.centroids().size());
}

TEST(QuantileSketch, SerializeRoundTripIsBitIdentical) {
  QuantileSketch s(64);
  for (double x : zipf_like_samples(5000, 7)) s.add(x);
  StateWriter w1;
  s.save_state(w1);
  QuantileSketch loaded;
  StateReader r(w1.buffer());
  ASSERT_TRUE(loaded.load_state(r).ok());
  ASSERT_TRUE(r.exhausted());
  StateWriter w2;
  loaded.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());  // canonical form: save∘load = id
  EXPECT_EQ(s.quantile(0.5), loaded.quantile(0.5));
  EXPECT_EQ(s.count(), loaded.count());
}

TEST(QuantileSketch, LoadRejectsCorruptWeights) {
  QuantileSketch s;
  s.add(1.0);
  StateWriter w;
  s.save_state(w);
  std::vector<std::uint8_t> bytes = w.take();
  bytes[4] ^= 0x01;  // count no longer matches centroid weights
  QuantileSketch loaded;
  StateReader r(bytes);
  EXPECT_FALSE(loaded.load_state(r).ok());
}

// A count of 2^62 centroids/buckets/items must be refused before anything
// is allocated for it: fleet-journal replay feeds these loaders bytes that
// a CRC does not vouch for.
constexpr std::uint64_t kHostileCount = std::uint64_t{1} << 62;

TEST(QuantileSketch, LoadRejectsHostileCentroidCount) {
  StateWriter w;
  w.u32(128);  // compression
  w.u64(1);    // count
  w.f64(0.5);  // min
  w.f64(0.5);  // max
  w.u64(kHostileCount);
  w.f64(0.5);
  w.u64(1);
  QuantileSketch loaded;
  StateReader r(w.buffer());
  const Status st = loaded.load_state(r);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.to_string();
}

TEST(StreamingHistogram, BucketsAndOverflows) {
  StreamingHistogram h(1.0, 2.0, 4);  // [1,2) [2,4) [4,8) [8,16)
  h.add(0.5);   // underflow
  h.add(0.0);   // underflow (below lo)
  h.add(1.0);   // bucket 0
  h.add(3.999); // bucket 1
  h.add(4.0);   // bucket 2
  h.add(16.0);  // overflow (at last edge)
  h.add(1e9);   // overflow
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 0u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(StreamingHistogram, MergeIsAssociativeAndCommutative) {
  const auto make = [](std::uint64_t seed) {
    StreamingHistogram h;
    for (double x : zipf_like_samples(1000, seed)) h.add(x);
    return h;
  };
  const StreamingHistogram a = make(1), b = make(2), c = make(3);

  StreamingHistogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  StreamingHistogram a_bc = b;
  a_bc.merge(c);
  a_bc.merge(a);  // different structure AND order

  StateWriter w1, w2;
  ab_c.save_state(w1);
  a_bc.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
}

TEST(StreamingHistogram, MergeRejectsLayoutMismatch) {
  // Only two *non-empty* sketches need comparable layouts; empty operands
  // merge as identities (covered below).
  StreamingHistogram a(1.0, 2.0, 8);
  StreamingHistogram b(1.0, 2.0, 16);
  StreamingHistogram c(2.0, 2.0, 8);
  a.add(1.5);
  b.add(1.5);
  c.add(2.5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(StreamingHistogram, MergeEmptyIsExactIdentityBothDirections) {
  StreamingHistogram full(1.0, 2.0, 8);
  for (double x : {0.5, 1.5, 3.0, 300.0}) full.add(x);  // under/in/overflow
  StateWriter before;
  full.save_state(before);

  // Empty other — even with a different layout — is a no-op.
  full.merge(StreamingHistogram(2.0, 4.0, 4));
  StateWriter after_noop;
  full.save_state(after_noop);
  EXPECT_EQ(before.buffer(), after_noop.buffer());

  // Empty this adopts the non-empty operand wholesale, layout included.
  StreamingHistogram empty(2.0, 4.0, 4);
  empty.merge(full);
  StateWriter adopted;
  empty.save_state(adopted);
  EXPECT_EQ(before.buffer(), adopted.buffer());
}

TEST(StreamingHistogram, SingleElementMergeIsExact) {
  StreamingHistogram one(1.0, 2.0, 8);
  one.add(3.0);
  StreamingHistogram target(1.0, 2.0, 8);
  target.merge(one);
  StateWriter w1, w2;
  one.save_state(w1);
  target.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(target.total(), 1u);
}

TEST(StreamingHistogram, SerializeRoundTrip) {
  StreamingHistogram h;
  for (double x : uniform_samples(500, 4)) h.add(x);
  h.add(-1.0);
  StateWriter w1;
  h.save_state(w1);
  StreamingHistogram loaded(1.0, 2.0, 2);
  StateReader r(w1.buffer());
  ASSERT_TRUE(loaded.load_state(r).ok());
  ASSERT_TRUE(r.exhausted());
  StateWriter w2;
  loaded.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(h.total(), loaded.total());
  EXPECT_EQ(h.underflow(), loaded.underflow());
}

TEST(StreamingHistogram, LoadRejectsHostileBucketCount) {
  StateWriter w;
  w.f64(1.0);  // lo
  w.f64(2.0);  // growth
  w.u64(kHostileCount);
  for (int i = 0; i < 4; ++i) w.u64(0);
  StreamingHistogram loaded(1.0, 2.0, 4);
  StateReader r(w.buffer());
  const Status st = loaded.load_state(r);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.to_string();
}

TEST(WelfordRunningStats, MatchesTwoPassMoments) {
  const std::vector<double> xs = zipf_like_samples(5000, 9);
  RunningStats rs;
  for (double x : xs) rs.add(x);

  // Two-pass reference.
  double m = 0;
  for (double x : xs) m += x;
  m /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - m) * (x - m);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_NEAR(rs.mean(), m, std::abs(m) * 1e-12);
  EXPECT_NEAR(rs.variance(), var, var * 1e-9);
}

TEST(WelfordRunningStats, SerializeRoundTrip) {
  RunningStats rs;
  for (double x : uniform_samples(100, 5)) rs.add(x);
  StateWriter w1;
  rs.save_state(w1);
  RunningStats loaded;
  StateReader r(w1.buffer());
  ASSERT_TRUE(loaded.load_state(r).ok());
  ASSERT_TRUE(r.exhausted());
  EXPECT_EQ(rs.count(), loaded.count());
  EXPECT_EQ(rs.mean(), loaded.mean());
  EXPECT_EQ(rs.variance(), loaded.variance());
  EXPECT_EQ(rs.min(), loaded.min());
  EXPECT_EQ(rs.max(), loaded.max());
}

TEST(WeightedReservoir, SampleIsAddOrderAndMergeStructureIndependent) {
  WeightedReservoir forward(16);
  WeightedReservoir backward(16);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    forward.add(id, static_cast<double>(id));
  }
  for (std::uint64_t id = 1000; id-- > 0;) {
    backward.add(id, static_cast<double>(id));
  }
  ASSERT_EQ(forward.items().size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(forward.items()[i].id, backward.items()[i].id);
  }

  WeightedReservoir left(16), right(16);
  for (std::uint64_t id = 0; id < 500; ++id) {
    left.add(id, static_cast<double>(id));
  }
  for (std::uint64_t id = 500; id < 1000; ++id) {
    right.add(id, static_cast<double>(id));
  }
  left.merge(right);
  EXPECT_EQ(left.seen(), forward.seen());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(left.items()[i].id, forward.items()[i].id);
  }
}

TEST(WeightedReservoir, RoughlyUniformSelection) {
  // Each id is selected by hash priority; over many disjoint populations
  // the kept ids' mean rank should be near the population middle.
  double mean_rank = 0;
  constexpr int kTrials = 64;
  constexpr std::uint64_t kPop = 512;
  for (int trial = 0; trial < kTrials; ++trial) {
    WeightedReservoir r(8, /*salt=*/0x1234 + static_cast<std::uint64_t>(trial));
    const std::uint64_t base = static_cast<std::uint64_t>(trial) * kPop;
    for (std::uint64_t i = 0; i < kPop; ++i) {
      r.add(base + i, 0.0);
    }
    for (const WeightedReservoir::Item& item : r.items()) {
      mean_rank += static_cast<double>(item.id - base) /
                   static_cast<double>(kPop);
    }
  }
  mean_rank /= kTrials * 8;
  EXPECT_NEAR(mean_rank, 0.5, 0.05);
}

TEST(WeightedReservoir, WeightBiasesSelection) {
  // Heavily-weighted ids should dominate the kept sample.
  WeightedReservoir r(32);
  for (std::uint64_t id = 0; id < 2000; ++id) {
    r.add(id, 0.0, id < 100 ? 100.0 : 1.0);
  }
  std::size_t heavy = 0;
  for (const WeightedReservoir::Item& item : r.items()) {
    heavy += item.id < 100 ? 1 : 0;
  }
  EXPECT_GT(heavy, 24u);  // ~100*100 / (100*100 + 1900) of the mass
}

TEST(WeightedReservoir, MergeRejectsIncompatible) {
  WeightedReservoir a(8, 1);
  const WeightedReservoir b(8, 2);
  const WeightedReservoir c(16, 1);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
  EXPECT_THROW(a.add(1, 0.0, 0.0), std::invalid_argument);
}

TEST(WeightedReservoir, SerializeRoundTrip) {
  WeightedReservoir r(8);
  for (std::uint64_t id = 0; id < 100; ++id) {
    r.add(id, static_cast<double>(id) * 0.5);
  }
  StateWriter w1;
  r.save_state(w1);
  WeightedReservoir loaded(1);
  StateReader reader(w1.buffer());
  ASSERT_TRUE(loaded.load_state(reader).ok());
  ASSERT_TRUE(reader.exhausted());
  StateWriter w2;
  loaded.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(r.seen(), loaded.seen());
}

TEST(WeightedReservoir, LoadRejectsHostileItemCount) {
  StateWriter w;
  w.u64(kHostileCount);  // capacity, so the item count passes that check
  w.u64(0);              // salt
  w.u64(1);              // seen
  w.u64(kHostileCount);
  w.f64(0.5);
  w.u64(1);
  w.f64(0.5);
  WeightedReservoir loaded(1);
  StateReader r(w.buffer());
  const Status st = loaded.load_state(r);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.to_string();
}

TEST(StreamSummary, SerializeThenMergeIsBitIdenticalToDirectMerge) {
  // The fleet invariant: a shard checkpointed and reloaded merges exactly
  // like the shard that never left memory.
  const std::vector<double> a = uniform_samples(3000, 20);
  const std::vector<double> b = bimodal_samples(3000, 21);
  StreamSummary sa, sb;
  for (double x : a) sa.add(x);
  for (double x : b) sb.add(x);
  sa.compress();
  sb.compress();

  // Path 1: direct merge.
  StreamSummary direct = sa;
  direct.merge(sb);

  // Path 2: both operands through serialization first.
  const auto round_trip = [](const StreamSummary& s) {
    StateWriter w;
    s.save_state(w);
    StreamSummary out;
    StateReader r(w.buffer());
    EXPECT_TRUE(out.load_state(r).ok());
    return out;
  };
  StreamSummary reloaded = round_trip(sa);
  reloaded.merge(round_trip(sb));

  StateWriter w1, w2;
  direct.save_state(w1);
  reloaded.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(direct.quantile(0.99), reloaded.quantile(0.99));
  EXPECT_EQ(direct.mean(), reloaded.mean());
}

TEST(StreamSummary, EmptyQuantileIsZeroNotThrow) {
  const StreamSummary s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.count(), 0u);
}

}  // namespace
}  // namespace nvmsec
