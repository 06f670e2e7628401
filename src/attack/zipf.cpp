#include "attack/zipf.h"

#include <bit>
#include <cmath>
#include <list>
#include <mutex>
#include <stdexcept>

namespace nvmsec {

namespace {

std::vector<double> zipf_weights(double s, std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("ZipfWorkload: max_lines == 0");
  if (s < 0) throw std::invalid_argument("ZipfWorkload: skew must be >= 0");
  std::vector<double> w(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
  }
  return w;
}

/// LRU cache of immutable ZipfDist instances: a mutex and an MRU-first list
/// with a linear scan — entries number in the tens, and a lookup is orders
/// of magnitude cheaper than the build it replaces.
class ZipfDistCache {
 public:
  std::shared_ptr<const ZipfDist> get_or_build(double s,
                                               std::uint64_t max_lines) {
    const Key key{std::bit_cast<std::uint64_t>(s), max_lines};
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->key == key) {
        ++hits_;
        entries_.splice(entries_.begin(), entries_, it);
        return entries_.front().dist;
      }
    }
    ++misses_;
    auto dist = std::make_shared<const ZipfDist>(zipf_weights(s, max_lines));
    entries_.push_front(Entry{key, dist});
    while (entries_.size() > kMaxEntries) entries_.pop_back();
    return dist;
  }

  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

  static ZipfDistCache& global() {
    static ZipfDistCache cache;
    return cache;
  }

 private:
  struct Key {
    std::uint64_t skew_bits;  // bit_cast'd double: exact-value keying
    std::uint64_t max_lines;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const ZipfDist> dist;
  };

  /// Each entry holds ~3 doubles per rank; 16 distinct (skew, size) pairs
  /// is plenty for any sweep while bounding memory.
  static constexpr std::size_t kMaxEntries = 16;

  mutable std::mutex mutex_;
  std::list<Entry> entries_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace

std::shared_ptr<const ZipfDist> zipf_dist(double s, std::uint64_t max_lines) {
  return ZipfDistCache::global().get_or_build(s, max_lines);
}

std::uint64_t zipf_dist_cache_hits() { return ZipfDistCache::global().hits(); }

std::uint64_t zipf_dist_cache_misses() {
  return ZipfDistCache::global().misses();
}

std::vector<double> zipf_address_rates(double s, std::uint64_t max_lines,
                                       std::uint64_t placement_seed) {
  const auto dist = zipf_dist(s, max_lines);
  // Replay the same placement shuffle the workload instance performs.
  std::vector<std::uint32_t> placement(max_lines);
  for (std::uint64_t i = 0; i < max_lines; ++i) {
    placement[i] = static_cast<std::uint32_t>(i);
  }
  Rng placement_rng(placement_seed);
  placement_rng.shuffle(placement);
  std::vector<double> rates(max_lines, 0.0);
  for (std::uint64_t k = 0; k < max_lines; ++k) {
    rates[placement[k]] += dist->ranks.probability(k);
  }
  return rates;
}

ZipfWorkload::ZipfWorkload(double s, std::uint64_t max_lines,
                           std::uint64_t placement_seed)
    : s_(s), max_lines_(max_lines), dist_(zipf_dist(s, max_lines)) {
  if (max_lines > UINT32_MAX) {
    throw std::invalid_argument("ZipfWorkload: max_lines exceeds 2^32");
  }
  placement_.resize(max_lines);
  for (std::uint64_t i = 0; i < max_lines; ++i) {
    placement_[i] = static_cast<std::uint32_t>(i);
  }
  Rng placement_rng(placement_seed);
  placement_rng.shuffle(placement_);
}

LogicalLineAddr ZipfWorkload::next(Rng& rng, std::uint64_t user_lines) {
  if (user_lines == 0) {
    throw std::invalid_argument("ZipfWorkload: empty address space");
  }
  // Draw a rank, scatter it; fold into the current space if it shrank.
  const std::uint64_t addr = placement_[dist_->ranks.sample(rng)];
  return LogicalLineAddr{addr % user_lines};
}

bool ZipfWorkload::next_counts(Rng& rng, std::uint64_t user_lines,
                               std::uint64_t n_writes, WriteCountVector& out) {
  if (user_lines == 0) {
    throw std::invalid_argument("ZipfWorkload: empty address space");
  }
  // Draw rank counts, then map each rank through the placement scatter and
  // the shrink fold, rewriting the just-appended entries in place. Distinct
  // ranks can fold onto one address; duplicate entries are fine downstream.
  const std::size_t first = out.size();
  dist_->rank_counts.draw(rng, n_writes, out);
  for (std::size_t i = first; i < out.size(); ++i) {
    out.addrs[i] = placement_[out.addrs[i]] % user_lines;
  }
  return true;
}

std::unique_ptr<Attack> make_zipf(double s, std::uint64_t max_lines,
                                  std::uint64_t placement_seed) {
  return std::make_unique<ZipfWorkload>(s, max_lines, placement_seed);
}

}  // namespace nvmsec
