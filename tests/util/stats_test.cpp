#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

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

/// gini_in_place() spelled out the plain way: copy, std::sort, and the
/// same two sums in the same order.
double reference_gini(std::vector<double> xs) {
  if (xs.size() < 2) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.front() < 0.0) throw std::invalid_argument("negative input");
  const auto n = static_cast<double>(xs.size());
  double sum = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sum += xs[i];
    weighted += static_cast<double>(i + 1) * xs[i];
  }
  if (sum == 0.0) return 0.0;
  return 2.0 * weighted / (n * sum) - (n + 1.0) / n;
}

/// A seeded sample of `n` values of one shape: heavy ties from a small
/// palette, long runs of exact 0.0 and 1.0 between random values, short
/// runs of repeating values, runs of +0.0 and -0.0 among positives, all
/// equal, or all distinct.
std::vector<double> gini_sample(const std::string& shape, std::size_t n,
                                Rng& rng) {
  std::vector<double> xs(n);
  if (shape == "ties") {
    const double palette[] = {0.0, 0.125, 0.5, 0.75, 1.0, 3.0};
    for (double& x : xs) x = palette[rng.uniform_u64(6)];
  } else if (shape == "zero_one_runs") {
    // A few dozen runs whatever n is: 0.0, 1.0 or one random value each.
    std::size_t i = 0;
    while (i < n) {
      const std::size_t len = 1 + rng.uniform_u64(std::max<std::size_t>(
                                      1, n / 16));
      const std::uint64_t kind = rng.uniform_u64(3);
      const double x = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.uniform_double();
      for (std::size_t k = 0; k < len && i < n; ++k, ++i) xs[i] = x;
    }
  } else if (shape == "short_runs") {
    // Runs of 1 to 8 equal values, repeating across runs: thousands of
    // runs at the larger sizes, yet fewer than n / 2.
    std::size_t i = 0;
    while (i < n) {
      const std::size_t len = 1 + rng.uniform_u64(8);
      const double x = static_cast<double>(rng.uniform_u64(200)) / 199.0;
      for (std::size_t k = 0; k < len && i < n; ++k, ++i) xs[i] = x;
    }
  } else if (shape == "signed_zeros") {
    // Runs of 1 to 8 values, each +0.0, -0.0 or a random positive: +0.0
    // and -0.0 compare equal but must stay separate runs.
    std::size_t i = 0;
    while (i < n) {
      const std::size_t len = 1 + rng.uniform_u64(8);
      const std::uint64_t kind = rng.uniform_u64(5);
      const double x = kind < 2   ? 0.0
                       : kind < 4 ? -0.0
                                  : rng.uniform_double();
      for (std::size_t k = 0; k < len && i < n; ++k, ++i) xs[i] = x;
    }
  } else if (shape == "all_equal") {
    std::fill(xs.begin(), xs.end(), 0.37);
  } else {
    for (double& x : xs) x = rng.uniform_double();
  }
  return xs;
}

TEST(GiniTest, InPlaceMatchesSortedSumsOnSeededSamples) {
  const char* const shapes[] = {"ties",         "zero_one_runs", "short_runs",
                                "signed_zeros", "all_equal",     "distinct"};
  const std::size_t sizes[] = {2,   3,   15,  16,   17,   63,   64,   65,
                               100, 255, 256, 1000, 4096, 65536};
  Rng rng(2024);
  for (const char* shape : shapes) {
    for (const std::size_t n : sizes) {
      SCOPED_TRACE(std::string(shape) + " n=" + std::to_string(n));
      const std::vector<double> input = gini_sample(shape, n, rng);
      std::vector<double> xs = input;
      const double got = gini_in_place(xs);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(reference_gini(input)));
      ASSERT_TRUE(std::is_sorted(xs.begin(), xs.end()));
      // Still a permutation of the input, signed zeros included.
      std::vector<double> expected = input;
      std::sort(expected.begin(), expected.end());
      EXPECT_TRUE(std::equal(xs.begin(), xs.end(), expected.begin()));
      const auto negative_zeros = [](const std::vector<double>& v) {
        return std::count_if(v.begin(), v.end(), [](double x) {
          return x == 0.0 && std::signbit(x);
        });
      };
      EXPECT_EQ(negative_zeros(xs), negative_zeros(input));

      std::vector<double> with_negative = input;
      with_negative[rng.uniform_u64(n)] = -1e-9;
      EXPECT_THROW(gini_in_place(with_negative), std::invalid_argument);
    }
  }
}

TEST(GiniRadixTest, DistinctValuesWithSignedZerosSortExactly) {
  // Mostly distinct values take the radix path. Values over forty binary
  // orders of magnitude vary every key byte, and scattered +0.0 and -0.0
  // must come back with their signs.
  Rng rng(7);
  for (const std::size_t n : {3u, 64u, 256u, 2048u, 65536u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> input(n);
    for (double& x : input) {
      const std::uint64_t kind = rng.uniform_u64(16);
      const int exponent = static_cast<int>(rng.uniform_u64(40)) - 20;
      x = kind == 0   ? 0.0
          : kind == 1 ? -0.0
                      : std::ldexp(rng.uniform_double(), exponent);
    }
    std::vector<double> xs = input;
    const double got = gini_in_place(xs);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(reference_gini(input)));
    std::vector<double> expected = input;
    std::sort(expected.begin(), expected.end());
    EXPECT_TRUE(std::equal(xs.begin(), xs.end(), expected.begin()));
    const auto negative_zeros = [](const std::vector<double>& v) {
      return std::count_if(v.begin(), v.end(), [](double x) {
        return x == 0.0 && std::signbit(x);
      });
    };
    EXPECT_EQ(negative_zeros(xs), negative_zeros(input));
  }
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
