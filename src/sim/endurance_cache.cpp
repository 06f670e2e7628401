#include "sim/endurance_cache.h"

#include <stdexcept>
#include <utility>

#include "nvm/endurance_map.h"

namespace nvmsec {

EnduranceMapCache::EnduranceMapCache(std::size_t max_entries)
    : max_entries_(max_entries) {
  if (max_entries == 0) {
    throw std::invalid_argument("EnduranceMapCache: max_entries must be > 0");
  }
}

EnduranceMapCache::Key EnduranceMapCache::make_key(
    const DeviceGeometry& geometry, const EnduranceModelParams& params,
    std::uint64_t seed, double line_jitter_sigma) {
  return Key{geometry.total_bytes(),     geometry.line_bytes(),
             geometry.num_regions(),     params.current_mean_ma,
             params.current_stddev_ma,   params.truncate_sigma,
             params.endurance_exponent,  params.endurance_at_mean,
             seed,                       line_jitter_sigma};
}

EnduranceMapCache::BuiltMap EnduranceMapCache::get_or_build(
    const DeviceGeometry& geometry, const EnduranceModelParams& params,
    std::uint64_t seed, double line_jitter_sigma) {
  const Key key = make_key(geometry, params, seed, line_jitter_sigma);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->key == key) {
        ++hits_;
        entries_.splice(entries_.begin(), entries_, it);  // mark MRU
        BuiltMap out = entries_.front().value;
        out.hit = true;
        return out;
      }
    }
    ++misses_;
  }

  // Build outside the lock so concurrent misses on different keys overlap.
  // This replays run_experiment's historical draw order exactly: map
  // sampling first, then jitter, on one Rng(seed) stream.
  Rng rng(seed);
  auto map = std::make_shared<EnduranceMap>(
      EnduranceMap::from_model(geometry, EnduranceModel(params), rng));
  if (line_jitter_sigma > 0) {
    map->apply_line_jitter(line_jitter_sigma, rng);
  }
  BuiltMap built{std::shared_ptr<const EnduranceMap>(std::move(map)), rng};

  std::lock_guard<std::mutex> lock(mutex_);
  // Another thread may have built the same key meanwhile. Both maps are
  // bit-identical (a pure function of the key), but keep the resident one
  // so the cache never holds duplicate keys.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().value;
    }
  }
  entries_.push_front(Entry{key, built});
  while (entries_.size() > max_entries_) entries_.pop_back();
  return built;
}

std::size_t EnduranceMapCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t EnduranceMapCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t EnduranceMapCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void EnduranceMapCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace nvmsec
