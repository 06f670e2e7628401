#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/serialize.h"

namespace nvmsec {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::save_state(StateWriter& w) const {
  w.u64(n_);
  w.f64(mean_);
  w.f64(m2_);
  w.f64(min_);
  w.f64(max_);
}

Status RunningStats::load_state(StateReader& r) {
  std::uint64_t n = 0;
  if (Status st = r.u64(n); !st.ok()) return st;
  if (Status st = r.f64(mean_); !st.ok()) return st;
  if (Status st = r.f64(m2_); !st.ok()) return st;
  if (Status st = r.f64(min_); !st.ok()) return st;
  if (Status st = r.f64(max_); !st.ok()) return st;
  n_ = static_cast<std::size_t>(n);
  return Status::ok_status();
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) {
      throw std::invalid_argument("geometric_mean: inputs must be > 0");
    }
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p must be in [0, 100]");
  }
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double min_value(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("min_value: empty input");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("max_value: empty input");
  return *std::max_element(xs.begin(), xs.end());
}

double gini(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  return gini_in_place(sorted);
}

double gini_in_place(std::span<double> xs) {
  if (xs.size() < 2) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.front() < 0.0) {
    throw std::invalid_argument("gini: inputs must be non-negative");
  }
  const auto n = static_cast<double>(xs.size());
  double sum = 0.0;
  double weighted = 0.0;  // sum of rank_i * x_i with 1-based ranks
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sum += xs[i];
    weighted += static_cast<double>(i + 1) * xs[i];
  }
  if (sum == 0.0) return 0.0;
  return 2.0 * weighted / (n * sum) - (n + 1.0) / n;
}

double max_min_ratio(std::span<const double> xs) {
  if (xs.size() < 2) return 1.0;
  double lo = xs[0];
  double hi = xs[0];
  for (double x : xs) {
    if (x < 0.0) {
      throw std::invalid_argument("max_min_ratio: inputs must be non-negative");
    }
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (hi == 0.0) return 1.0;  // all zeros: equal, not infinitely unequal
  if (lo == 0.0) return std::numeric_limits<double>::infinity();
  return hi / lo;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (buckets == 0) throw std::invalid_argument("Histogram: buckets == 0");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::int64_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::bucket_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const {
  return bucket_lo(i + 1);
}

std::string Histogram::ascii(std::size_t max_width) const {
  std::uint64_t peak = 1;
  for (std::uint64_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(max_width));
    out << "[" << bucket_lo(i) << ", " << bucket_hi(i) << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace nvmsec
