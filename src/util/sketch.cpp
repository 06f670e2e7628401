#include "util/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"
#include "util/serialize.h"

namespace nvmsec {

// ---------------------------------------------------------------------------
// QuantileSketch

namespace {

/// Buffered points per compression unit before an automatic compress();
/// larger buffers amortize sorting, smaller ones bound memory.
constexpr std::size_t kBufferMultiple = 4;

}  // namespace

QuantileSketch::QuantileSketch(std::uint32_t compression)
    : compression_(compression) {
  if (compression_ == 0) {
    throw std::invalid_argument("QuantileSketch: compression must be > 0");
  }
}

void QuantileSketch::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  buffer_.push_back(x);
  if (buffer_.size() >= kBufferMultiple * compression_) canonicalize();
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    // Adopt the representation wholesale (compression included): merging
    // into an empty sketch must reproduce `other` exactly, byte for byte.
    // Re-running the greedy partition here is not idempotent — midpoint
    // quantiles shift once clusters exist — so a rebuilt copy could
    // serialize differently from its source.
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  centroids_.insert(centroids_.end(), other.centroids_.begin(),
                    other.centroids_.end());
  buffer_.insert(buffer_.end(), other.buffer_.begin(), other.buffer_.end());
  canonicalize();
}

void QuantileSketch::compress() { canonicalize(); }

void QuantileSketch::canonicalize() const {
  if (buffer_.empty() && centroids_.size() <= 1) return;
  std::vector<Centroid> points;
  points.reserve(centroids_.size() + buffer_.size());
  points.insert(points.end(), centroids_.begin(), centroids_.end());
  for (double x : buffer_) points.push_back(Centroid{x, 1});
  buffer_.clear();
  std::sort(points.begin(), points.end(),
            [](const Centroid& a, const Centroid& b) {
              return a.mean != b.mean ? a.mean < b.mean : a.weight < b.weight;
            });

  // One left-to-right greedy pass: grow the current cluster until the
  // classic t-digest size bound 4*n*q*(1-q)/compression (evaluated at the
  // cluster's midpoint quantile) would be exceeded, then start a new one.
  // Pure +-*/ arithmetic, so the partition is platform-independent.
  const auto total = static_cast<double>(count_);
  std::vector<Centroid> merged;
  merged.reserve(points.size());
  double weight_before = 0;  // total weight strictly left of current cluster
  for (const Centroid& c : points) {
    if (!merged.empty()) {
      Centroid& last = merged.back();
      const auto proposed =
          static_cast<double>(last.weight) + static_cast<double>(c.weight);
      const double mid_q = (weight_before + proposed / 2.0) / total;
      const double limit =
          4.0 * total * mid_q * (1.0 - mid_q) /
          static_cast<double>(compression_);
      if (proposed <= std::max(1.0, limit)) {
        last.mean += (c.mean - last.mean) *
                     (static_cast<double>(c.weight) / proposed);
        last.weight += c.weight;
        continue;
      }
      weight_before += static_cast<double>(last.weight);
    }
    merged.push_back(c);
  }
  centroids_ = std::move(merged);
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) {
    throw std::invalid_argument("QuantileSketch::quantile: empty sketch");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("QuantileSketch::quantile: q must be in [0, 1]");
  }
  canonicalize();
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  if (centroids_.size() == 1) return centroids_.front().mean;

  // Each centroid is pinned at the midpoint of its weight span; interpolate
  // linearly between adjacent pins, and between min/max and the outermost
  // pins at the extremes.
  const double target = q * static_cast<double>(count_);
  double cum = 0;  // weight strictly left of centroid i
  double prev_pos = 0;
  double prev_mean = min_;
  for (const Centroid& c : centroids_) {
    const double pos = cum + static_cast<double>(c.weight) / 2.0;
    if (target < pos) {
      const double span = pos - prev_pos;
      const double frac = span > 0 ? (target - prev_pos) / span : 0.0;
      return prev_mean + (c.mean - prev_mean) * frac;
    }
    prev_pos = pos;
    prev_mean = c.mean;
    cum += static_cast<double>(c.weight);
  }
  const double span = static_cast<double>(count_) - prev_pos;
  const double frac = span > 0 ? (target - prev_pos) / span : 0.0;
  return prev_mean + (max_ - prev_mean) * std::min(1.0, frac);
}

double QuantileSketch::min() const { return count_ == 0 ? 0.0 : min_; }
double QuantileSketch::max() const { return count_ == 0 ? 0.0 : max_; }

std::vector<std::pair<double, std::uint64_t>> QuantileSketch::centroids()
    const {
  canonicalize();
  std::vector<std::pair<double, std::uint64_t>> out;
  out.reserve(centroids_.size());
  for (const Centroid& c : centroids_) out.emplace_back(c.mean, c.weight);
  return out;
}

void QuantileSketch::save_state(StateWriter& w) const {
  canonicalize();
  w.u32(compression_);
  w.u64(count_);
  w.f64(min_);
  w.f64(max_);
  w.u64(centroids_.size());
  for (const Centroid& c : centroids_) {
    w.f64(c.mean);
    w.u64(c.weight);
  }
}

Status QuantileSketch::load_state(StateReader& r) {
  std::uint32_t compression = 0;
  if (Status st = r.u32(compression); !st.ok()) return st;
  if (compression == 0) {
    return Status::corruption("QuantileSketch: zero compression");
  }
  if (Status st = r.u64(count_); !st.ok()) return st;
  if (Status st = r.f64(min_); !st.ok()) return st;
  if (Status st = r.f64(max_); !st.ok()) return st;
  std::uint64_t n = 0;
  if (Status st = r.count(n, 16); !st.ok()) return st;
  std::vector<Centroid> centroids;
  std::uint64_t weight_sum = 0;
  centroids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Centroid c;
    if (Status st = r.f64(c.mean); !st.ok()) return st;
    if (Status st = r.u64(c.weight); !st.ok()) return st;
    weight_sum += c.weight;
    centroids.push_back(c);
  }
  if (weight_sum != count_) {
    return Status::corruption(
        "QuantileSketch: centroid weights do not sum to the count");
  }
  compression_ = compression;
  centroids_ = std::move(centroids);
  buffer_.clear();
  return Status::ok_status();
}

// ---------------------------------------------------------------------------
// StreamingHistogram

StreamingHistogram::StreamingHistogram(double lo, double growth,
                                       std::size_t buckets)
    : growth_(growth) {
  if (!(lo > 0.0)) {
    throw std::invalid_argument("StreamingHistogram: lo must be > 0");
  }
  if (!(growth > 1.0)) {
    throw std::invalid_argument("StreamingHistogram: growth must be > 1");
  }
  if (buckets == 0) {
    throw std::invalid_argument("StreamingHistogram: buckets == 0");
  }
  edges_.reserve(buckets + 1);
  double edge = lo;
  for (std::size_t i = 0; i <= buckets; ++i) {
    edges_.push_back(edge);
    edge *= growth;  // repeated IEEE multiply: bit-identical everywhere
  }
  counts_.assign(buckets, 0);
}

void StreamingHistogram::add_weighted(double x, std::uint64_t weight) {
  total_ += weight;
  if (!(x >= edges_.front())) {  // below lo, zero, negative, or NaN
    underflow_ += weight;
    return;
  }
  if (x >= edges_.back()) {
    overflow_ += weight;
    return;
  }
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  counts_[static_cast<std::size_t>(it - edges_.begin()) - 1] += weight;
}

bool StreamingHistogram::same_layout(const StreamingHistogram& other) const {
  return growth_ == other.growth_ && edges_.size() == other.edges_.size() &&
         edges_.front() == other.edges_.front();
}

void StreamingHistogram::merge(const StreamingHistogram& other) {
  // Empty operands merge as exact identities regardless of layout: a shard
  // that saw no devices contributes nothing, and an aggregate that hasn't
  // seen data yet adopts the first real shard's layout wholesale. Only two
  // non-empty sketches need comparable buckets.
  if (other.total_ == 0) return;
  if (total_ == 0) {
    *this = other;
    return;
  }
  if (!same_layout(other)) {
    throw std::invalid_argument(
        "StreamingHistogram::merge: bucket layouts differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

std::string StreamingHistogram::ascii(std::size_t max_width) const {
  // Render only the occupied bucket range (the default layout spans 19
  // decades; most of it is empty for any one metric).
  std::size_t first = counts_.size();
  std::size_t last = 0;
  std::uint64_t peak = 1;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    first = std::min(first, i);
    last = std::max(last, i);
    peak = std::max(peak, counts_[i]);
  }
  peak = std::max({peak, underflow_, overflow_});
  std::ostringstream out;
  const auto bar = [&](std::uint64_t c) {
    return std::string(static_cast<std::size_t>(
                           static_cast<double>(c) / static_cast<double>(peak) *
                           static_cast<double>(max_width)),
                       '#');
  };
  if (underflow_ > 0) {
    out << "(-inf, " << edges_.front() << ") " << bar(underflow_) << " "
        << underflow_ << "\n";
  }
  for (std::size_t i = first; i <= last && first < counts_.size(); ++i) {
    out << "[" << edges_[i] << ", " << edges_[i + 1] << ") "
        << bar(counts_[i]) << " " << counts_[i] << "\n";
  }
  if (overflow_ > 0) {
    out << "[" << edges_.back() << ", inf) " << bar(overflow_) << " "
        << overflow_ << "\n";
  }
  return out.str();
}

void StreamingHistogram::save_state(StateWriter& w) const {
  w.f64(edges_.front());
  w.f64(growth_);
  w.u64(counts_.size());
  for (std::uint64_t c : counts_) w.u64(c);
  w.u64(underflow_);
  w.u64(overflow_);
  w.u64(total_);
}

Status StreamingHistogram::load_state(StateReader& r) {
  double lo = 0;
  double growth = 0;
  std::uint64_t buckets = 0;
  if (Status st = r.f64(lo); !st.ok()) return st;
  if (Status st = r.f64(growth); !st.ok()) return st;
  if (Status st = r.count(buckets, 8); !st.ok()) return st;
  if (!(lo > 0.0) || !(growth > 1.0) || buckets == 0) {
    return Status::corruption("StreamingHistogram: invalid layout");
  }
  StreamingHistogram fresh(lo, growth, static_cast<std::size_t>(buckets));
  for (std::uint64_t& c : fresh.counts_) {
    if (Status st = r.u64(c); !st.ok()) return st;
  }
  if (Status st = r.u64(fresh.underflow_); !st.ok()) return st;
  if (Status st = r.u64(fresh.overflow_); !st.ok()) return st;
  if (Status st = r.u64(fresh.total_); !st.ok()) return st;
  *this = std::move(fresh);
  return Status::ok_status();
}

// ---------------------------------------------------------------------------
// WeightedReservoir

WeightedReservoir::WeightedReservoir(std::size_t capacity, std::uint64_t salt)
    : capacity_(capacity), salt_(salt) {
  if (capacity_ == 0) {
    throw std::invalid_argument("WeightedReservoir: capacity must be > 0");
  }
}

namespace {

/// Hash-uniform in [0, 1): the item's priority seed. Pure integer mixing
/// plus one exact scale, so identical on every platform.
double priority_uniform(std::uint64_t salt, std::uint64_t id) {
  SplitMix64 mix(salt ^ (id * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

bool priority_before(const WeightedReservoir::Item& a,
                     const WeightedReservoir::Item& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.id < b.id;
}

}  // namespace

void WeightedReservoir::add(std::uint64_t id, double value, double weight) {
  if (!(weight > 0.0)) {
    throw std::invalid_argument("WeightedReservoir::add: weight must be > 0");
  }
  ++seen_;
  const double u = priority_uniform(salt_, id);
  Item item;
  item.priority = weight == 1.0 ? u : std::pow(u, 1.0 / weight);
  item.id = id;
  item.value = value;
  const auto pos =
      std::lower_bound(items_.begin(), items_.end(), item, priority_before);
  if (pos != items_.begin()) {
    const Item& prev = *(pos - 1);
    if (prev.priority == item.priority && prev.id == item.id) return;
  }
  items_.insert(pos, item);
  truncate();
}

void WeightedReservoir::merge(const WeightedReservoir& other) {
  if (capacity_ != other.capacity_ || salt_ != other.salt_) {
    throw std::invalid_argument(
        "WeightedReservoir::merge: capacity/salt mismatch — priorities are "
        "not comparable");
  }
  for (const Item& item : other.items_) {
    const auto pos =
        std::lower_bound(items_.begin(), items_.end(), item, priority_before);
    if (pos != items_.begin()) {
      const Item& prev = *(pos - 1);
      if (prev.priority == item.priority && prev.id == item.id) continue;
    }
    items_.insert(pos, item);
  }
  seen_ += other.seen_;
  truncate();
}

void WeightedReservoir::truncate() {
  if (items_.size() > capacity_) items_.resize(capacity_);
}

void WeightedReservoir::save_state(StateWriter& w) const {
  w.u64(capacity_);
  w.u64(salt_);
  w.u64(seen_);
  w.u64(items_.size());
  for (const Item& item : items_) {
    w.f64(item.priority);
    w.u64(item.id);
    w.f64(item.value);
  }
}

Status WeightedReservoir::load_state(StateReader& r) {
  std::uint64_t capacity = 0;
  if (Status st = r.u64(capacity); !st.ok()) return st;
  if (capacity == 0) {
    return Status::corruption("WeightedReservoir: zero capacity");
  }
  if (Status st = r.u64(salt_); !st.ok()) return st;
  if (Status st = r.u64(seen_); !st.ok()) return st;
  std::uint64_t n = 0;
  if (Status st = r.count(n, 24); !st.ok()) return st;
  if (n > capacity) {
    return Status::corruption("WeightedReservoir: more items than capacity");
  }
  capacity_ = static_cast<std::size_t>(capacity);
  items_.clear();
  items_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Item item;
    if (Status st = r.f64(item.priority); !st.ok()) return st;
    if (Status st = r.u64(item.id); !st.ok()) return st;
    if (Status st = r.f64(item.value); !st.ok()) return st;
    items_.push_back(item);
  }
  return Status::ok_status();
}

// ---------------------------------------------------------------------------
// StreamSummary

void StreamSummary::save_state(StateWriter& w) const {
  moments_.save_state(w);
  sketch_.save_state(w);
}

Status StreamSummary::load_state(StateReader& r) {
  if (Status st = moments_.load_state(r); !st.ok()) return st;
  return sketch_.load_state(r);
}

}  // namespace nvmsec
