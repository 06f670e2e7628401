#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace nvmsec {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    all.add(x);
    (i < 20 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, AllNegativeValuesTrackMinMax) {
  // Guards against zero-initialised min/max leaking into the summary when
  // every sample is below zero.
  RunningStats s;
  for (double x : {-3.0, -1.0, -7.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), -7.0);
  EXPECT_DOUBLE_EQ(s.max(), -1.0);
  EXPECT_DOUBLE_EQ(s.mean(), -11.0 / 3.0);
}

TEST(RunningStatsTest, ThreeWayMergeIsOrderIndependent) {
  std::vector<RunningStats> parts(3);
  RunningStats all;
  for (int i = 0; i < 30; ++i) {
    const double x = std::cos(i) * 5 + i;
    parts[static_cast<std::size_t>(i % 3)].add(x);
    all.add(x);
  }
  RunningStats ab = parts[0];
  ab.merge(parts[1]);
  ab.merge(parts[2]);
  RunningStats cb = parts[2];
  cb.merge(parts[1]);
  cb.merge(parts[0]);
  EXPECT_EQ(ab.count(), all.count());
  EXPECT_NEAR(ab.mean(), cb.mean(), 1e-12);
  EXPECT_NEAR(ab.variance(), cb.variance(), 1e-10);
  EXPECT_NEAR(ab.variance(), all.variance(), 1e-10);
}

TEST(RunningStatsTest, MergeOfTwoSingletonsMatchesPair) {
  // Smallest non-trivial merge: both sides have zero variance of their own.
  RunningStats a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.variance(), 2.0);  // ((1-2)^2 + (3-2)^2) / (2-1)
}

TEST(FreeFunctionsTest, MeanAndStddev) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_EQ(stddev(std::vector<double>{3.0}), 0.0);
}

TEST(FreeFunctionsTest, GeometricMean) {
  const std::vector<double> xs{1, 4, 16};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
  EXPECT_THROW(geometric_mean(std::vector<double>{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(geometric_mean(std::vector<double>{-1.0}),
               std::invalid_argument);
}

TEST(FreeFunctionsTest, GeometricMeanMatchesPaperUsage) {
  // Fig. 8's Gmean column style: lifetimes as percentages.
  const std::vector<double> xs{42.7, 42.8, 53.5, 72.5};
  const double g = geometric_mean(xs);
  EXPECT_GT(g, 42.7);
  EXPECT_LT(g, 72.5);
  EXPECT_NEAR(g, std::pow(42.7 * 42.8 * 53.5 * 72.5, 0.25), 1e-9);
}

TEST(FreeFunctionsTest, Percentile) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_THROW(percentile(std::vector<double>{}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

TEST(FreeFunctionsTest, MinMax) {
  const std::vector<double> xs{3, 1, 2};
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 3.0);
  EXPECT_THROW(min_value(std::vector<double>{}), std::invalid_argument);
}

TEST(GiniTest, DegenerateInputsHaveNoInequality) {
  EXPECT_DOUBLE_EQ(gini(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(gini(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(gini(std::vector<double>{0.0, 0.0, 0.0}), 0.0);
}

TEST(GiniTest, AllEqualIsZero) {
  EXPECT_NEAR(gini(std::vector<double>{3.0, 3.0, 3.0, 3.0}), 0.0, 1e-12);
}

TEST(GiniTest, KnownValue) {
  // One of four holds everything: G = (n-1)/n = 0.75.
  EXPECT_NEAR(gini(std::vector<double>{1.0, 0.0, 0.0, 0.0}), 0.75, 1e-12);
  // Order must not matter.
  EXPECT_NEAR(gini(std::vector<double>{0.0, 0.0, 1.0, 0.0}), 0.75, 1e-12);
}

TEST(GiniTest, ModerateInequalityBetweenExtremes) {
  const double g = gini(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_GT(g, 0.0);
  EXPECT_LT(g, 0.75);
  EXPECT_NEAR(g, 0.25, 1e-12);
}

TEST(GiniTest, NegativeValuesThrow) {
  EXPECT_THROW(gini(std::vector<double>{1.0, -1.0}), std::invalid_argument);
}

TEST(GiniTest, EdgeCases) {
  // The in-place form shares gini()'s degenerate cases and its refusal.
  std::vector<double> empty;
  std::vector<double> single{5.0};
  std::vector<double> zeros{0.0, 0.0};
  std::vector<double> negative{1.0, -1.0};
  EXPECT_DOUBLE_EQ(gini_in_place(empty), 0.0);
  EXPECT_DOUBLE_EQ(gini_in_place(single), 0.0);
  EXPECT_DOUBLE_EQ(gini_in_place(zeros), 0.0);
  EXPECT_THROW(gini_in_place(negative), std::invalid_argument);
}

TEST(GiniTest, UniformIsZero) {
  std::vector<double> values(100, 3.0);
  EXPECT_NEAR(gini_in_place(values), 0.0, 1e-12);
}

TEST(GiniTest, ConcentrationApproachesOne) {
  std::vector<double> values(100, 0.0);
  values[0] = 1.0;
  EXPECT_NEAR(gini(values), 0.99, 0.001);
}

TEST(GiniTest, KnownTwoPointValue) {
  // {1, 3}: Gini = (2*(1*1 + 2*3)/(2*4)) - 3/2 = 14/8 - 12/8 = 0.25.
  EXPECT_NEAR(gini(std::vector<double>{1.0, 3.0}), 0.25, 1e-12);
}

TEST(GiniTest, InPlaceMatchesCopyBitForBitAndSorts) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(std::fmod(static_cast<double>(i) * 0.7548776662, 1.0));
  }
  const double copied = gini(values);
  EXPECT_EQ(gini_in_place(values), copied);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(MaxMinRatioTest, DegenerateInputsAreBalanced) {
  EXPECT_DOUBLE_EQ(max_min_ratio(std::vector<double>{}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_ratio(std::vector<double>{7.0}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_ratio(std::vector<double>{0.0, 0.0}), 1.0);
}

TEST(MaxMinRatioTest, KnownRatioAndInfinity) {
  EXPECT_DOUBLE_EQ(max_min_ratio(std::vector<double>{2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(max_min_ratio(std::vector<double>{4.0, 4.0}), 1.0);
  EXPECT_TRUE(std::isinf(max_min_ratio(std::vector<double>{0.0, 3.0})));
}

TEST(MaxMinRatioTest, NegativeValuesThrow) {
  EXPECT_THROW(max_min_ratio(std::vector<double>{-2.0, 8.0}),
               std::invalid_argument);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bucket 0
  h.add(9.99);   // bucket 4
  h.add(-5.0);   // clamped to bucket 0
  h.add(15.0);   // clamped to bucket 4
  h.add(5.0);    // bucket 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(2), 6.0);
}

TEST(FreeFunctionsTest, PercentileSingleElementAndQuartiles) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 100), 7.0);
  const std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 46.0);  // interpolated
}

TEST(HistogramTest, ExactBoundsLandInEdgeBuckets) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);    // inclusive lower bound -> bucket 0
  h.add(10.0);   // hi is exclusive; clamps into the last bucket
  h.add(2.0);    // internal edge belongs to the upper bucket: [2, 4)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, SingleBucketAbsorbsEverything) {
  Histogram h(0.0, 1.0, 1);
  h.add_all(std::vector<double>{-100.0, 0.0, 0.5, 0.999, 100.0});
  EXPECT_EQ(h.bucket_count(), 1u);
  EXPECT_EQ(h.bucket(0), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 1.0);
}

TEST(HistogramTest, InvalidConstruction) {
  EXPECT_THROW(Histogram(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1, 1, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2, 1, 4), std::invalid_argument);
}

TEST(HistogramTest, AsciiRendersOneLinePerBucket) {
  Histogram h(0.0, 4.0, 4);
  h.add_all(std::vector<double>{0.5, 1.5, 1.6, 2.5});
  const std::string art = h.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find('#'), std::string::npos);
}

}  // namespace
}  // namespace nvmsec
