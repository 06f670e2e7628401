// Small statistics toolkit used by the benchmarks and the endurance model:
// summary statistics, geometric mean (Fig. 8's Gmean column), percentiles,
// and a fixed-width histogram for endurance-distribution reporting.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace nvmsec {

class StateWriter;
class StateReader;

/// Streaming accumulator (Welford) for mean/variance without storing samples.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Merge another accumulator (parallel reduction).
  void merge(const RunningStats& other);

  /// Serialize for checkpointing (rides the fleet sketch state).
  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

 private:
  std::size_t n_{0};
  double mean_{0};
  double m2_{0};
  double min_{0};
  double max_{0};
};

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> xs);

/// Sample standard deviation; 0 for fewer than two samples.
double stddev(std::span<const double> xs);

/// Geometric mean; all inputs must be > 0.
double geometric_mean(std::span<const double> xs);

/// Linear-interpolation percentile, p in [0, 100]. Sorts a copy.
double percentile(std::span<const double> xs, double p);

/// Min / max helpers; throw on empty input.
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Gini coefficient of a non-negative sample (0 = perfectly equal wear,
/// approaching 1 = one region took everything). Degenerate inputs — empty,
/// a single sample, or an all-zero sample — have no meaningful inequality
/// and return 0. Throws std::invalid_argument on negative values.
double gini(std::span<const double> xs);

/// gini() over caller-owned storage: sorts `xs` in place instead of a copy,
/// so it allocates nothing. Bit-identical to gini().
double gini_in_place(std::span<double> xs);

/// max(xs) / min(xs), the paper's wear-imbalance ratio. Returns 1 for
/// empty, single-sample and all-zero inputs (no imbalance to speak of),
/// +infinity when min is 0 but max is not. Throws std::invalid_argument on
/// negative values.
double max_min_ratio(std::span<const double> xs);

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// first/last bucket so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  void add_all(std::span<const double> xs);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double bucket_hi(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Render an ASCII bar chart (one line per bucket), for bench output.
  [[nodiscard]] std::string ascii(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_{0};
};

}  // namespace nvmsec
