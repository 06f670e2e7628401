// Keyed, thread-safe cache of endurance maps, handed to run_experiment
// through its `cache` parameter. No batch path passes one: run_experiments
// and run_fleet draw every run's map the same way at every job count.
//
// Configs that differ only in scheme/budget knobs share a map: it is a pure
// function of (geometry, endurance params, seed, jitter sigma), and maps
// are immutable after construction, so distinct runs — including runs on
// different threads — can share one `shared_ptr<const EnduranceMap>`.
//
// Determinism contract: `run_experiment` feeds ONE `Rng(config.seed)`
// stream through map sampling, jitter, and then spare-scheme construction.
// Handing a cached map to a fresh `Rng(seed)` would desynchronize every
// draw after the map and change results. The cache therefore memoizes the
// *post-construction RNG state* alongside the map; a hit replays both, so
// a cached run is bit-identical to a cold one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "nvm/endurance_model.h"
#include "nvm/geometry.h"
#include "util/rng.h"

namespace nvmsec {

class EnduranceMap;

class EnduranceMapCache {
 public:
  /// LRU-bounded: at most `max_entries` maps are retained (each full-size
  /// jittered map holds one double per line, so the bound is a real memory
  /// cap, not bookkeeping). Throws std::invalid_argument on 0.
  explicit EnduranceMapCache(std::size_t max_entries = 64);

  struct BuiltMap {
    std::shared_ptr<const EnduranceMap> map;
    /// RNG state immediately after map construction (+ jitter); the caller
    /// continues the stream from here exactly as if it had built the map.
    Rng rng_after_build;
    /// True when this call was served from the cache (the caller paid no
    /// build cost). Observability only; never affects results.
    bool hit{false};
  };

  /// Return the map for (geometry, params, seed, jitter sigma), building
  /// and inserting it on a miss. Safe to call concurrently; a hit shares
  /// the immutable map across threads.
  BuiltMap get_or_build(const DeviceGeometry& geometry,
                        const EnduranceModelParams& params,
                        std::uint64_t seed, double line_jitter_sigma);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

  void clear();

 private:
  struct Key {
    std::uint64_t total_bytes;
    std::uint32_t line_bytes;
    std::uint64_t num_regions;
    double current_mean_ma;
    double current_stddev_ma;
    double truncate_sigma;
    double endurance_exponent;
    double endurance_at_mean;
    std::uint64_t seed;
    double line_jitter_sigma;

    bool operator==(const Key&) const = default;
  };

  struct Entry {
    Key key;
    BuiltMap value;
  };

  static Key make_key(const DeviceGeometry& geometry,
                      const EnduranceModelParams& params, std::uint64_t seed,
                      double line_jitter_sigma);

  std::size_t max_entries_;
  mutable std::mutex mutex_;
  /// Most-recently-used first. Linear scan: the cache holds tens of
  /// entries, and a lookup is three orders of magnitude cheaper than the
  /// map build it replaces.
  std::list<Entry> entries_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace nvmsec
