// Streaming statistics sketches for population-scale aggregation.
//
// The fleet runner (sim/fleet.h) folds millions of per-device results into
// O(shards) memory; these are the primitives that make that possible. All
// of them share three properties the fleet layer depends on:
//
//   1. Mergeable: shard-local sketches combine into a population sketch.
//      StreamingHistogram and WeightedReservoir merge associatively and
//      commutatively (bit-identical results regardless of merge structure);
//      QuantileSketch's merge is deterministic for a fixed operand order,
//      which is why the fleet runner always merges shards in shard-index
//      order.
//   2. Serializable via StateWriter/StateReader, so per-shard sketch state
//      rides the fleet's journal records (sim/journal.h) and a resumed
//      campaign produces bit-identical aggregates. Loaders bound every
//      declared count by the bytes left, so a malformed record is a
//      corruption Status, never a huge allocation.
//   3. Deterministic: no wall-clock, no platform-dependent libm calls on
//      the default paths, no unordered containers — the same input stream
//      yields the same bytes everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/status.h"

namespace nvmsec {

class StateWriter;
class StateReader;

/// Mergeable online quantile estimator in the t-digest family (Dunning's
/// merging-digest formulation with the classic 4*n*q*(1-q)/compression
/// cluster-size bound — pure arithmetic, no libm, so compression decisions
/// are platform-independent).
///
/// Accuracy: the cluster-size bound concentrates resolution at the tails,
/// so relative *rank* error is O(q*(1-q)/compression). At the default
/// compression of 128 the p50/p99 estimates land within a ~1% rank band of
/// an exact sort for the unimodal and bimodal inputs the tests exercise;
/// callers that need tighter tails raise `compression`.
///
/// Determinism: add() order and merge() operand order determine the
/// centroid set exactly. Two sketches fed the same stream are bit-identical;
/// merging shards in a fixed order is the caller's side of the contract.
class QuantileSketch {
 public:
  explicit QuantileSketch(std::uint32_t compression = 128);

  void add(double x);
  /// Fold `other` into this sketch (buffer + centroids, then compress).
  /// Merging with an empty sketch on either side is an exact identity:
  /// an empty `other` is a no-op, and an empty `this` adopts `other`'s
  /// representation (compression included) byte for byte.
  void merge(const QuantileSketch& other);

  /// Canonicalize: fold the unmerged buffer into centroids. Called
  /// automatically by quantile()/merge()/save_state(); exposed so a shard
  /// can canonicalize before checkpointing.
  void compress();

  /// Quantile estimate, q in [0, 1]. Exact for q=0/q=1 (tracked min/max)
  /// and for streams small enough to fit one centroid per point. Throws
  /// std::invalid_argument on an empty sketch or q outside [0, 1].
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] std::uint32_t compression() const { return compression_; }
  /// Centroids after compress(), (mean, weight) in ascending mean order.
  [[nodiscard]] std::vector<std::pair<double, std::uint64_t>> centroids() const;

  /// Serialization compresses first. compress() regroups centroids
  /// greedily and is not idempotent, so saving a saved (or compressed)
  /// sketch again can write different centroids: to fold exactly what a
  /// journal holds, fold the sketch after saving it (sim/fleet.cpp).
  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

 private:
  struct Centroid {
    double mean{0};
    std::uint64_t weight{0};
  };

  /// compress() in const clothing: quantile() and save_state() canonicalize
  /// on demand, which mutates only the representation, never the value.
  void canonicalize() const;

  std::uint32_t compression_;
  mutable std::vector<Centroid> centroids_;
  mutable std::vector<double> buffer_;
  std::uint64_t count_{0};
  double min_{0};
  double max_{0};
};

/// Mergeable histogram with geometrically spaced buckets: bucket i covers
/// [lo * growth^i, lo * growth^(i+1)), values below `lo` (including zero)
/// land in a dedicated underflow bucket, values at or above the last edge
/// land in an overflow bucket. Edges are produced by repeated IEEE
/// multiplication (no pow()), so the layout is bit-identical everywhere.
///
/// Merging requires an identical (lo, growth, buckets) layout and is a
/// plain count addition — associative and commutative, so merge structure
/// cannot change the result.
class StreamingHistogram {
 public:
  /// Default layout covers [1e-6, 1e-6 * 2^64) in powers of two — wide
  /// enough for normalized lifetimes and raw write counts alike.
  StreamingHistogram(double lo = 1e-6, double growth = 2.0,
                     std::size_t buckets = 64);

  void add(double x) { add_weighted(x, 1); }
  void add_weighted(double x, std::uint64_t weight);
  /// Throws std::invalid_argument when two *non-empty* layouts differ.
  /// An empty `other` merges as a no-op and an empty `this` adopts
  /// `other`'s layout and counts wholesale, so merging an empty sketch is
  /// an exact identity in both directions.
  void merge(const StreamingHistogram& other);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_.at(i);
  }
  [[nodiscard]] double bucket_lo(std::size_t i) const { return edges_.at(i); }
  [[nodiscard]] double bucket_hi(std::size_t i) const {
    return edges_.at(i + 1);
  }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double lo() const { return edges_.front(); }
  [[nodiscard]] double growth() const { return growth_; }

  /// ASCII bar chart of the non-empty bucket range, for report output.
  [[nodiscard]] std::string ascii(std::size_t max_width = 50) const;

  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

 private:
  [[nodiscard]] bool same_layout(const StreamingHistogram& other) const;

  double growth_;
  std::vector<double> edges_;  // buckets + 1 ascending edges
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t total_{0};
};

/// Weighted reservoir sample of a keyed population (A-Res family). Each
/// item's priority is derived from a SplitMix64 hash of (salt, id) — not
/// from a stateful RNG — so the sample is a pure function of the item set:
/// add order and merge structure cannot change it, and merging two
/// reservoirs is exactly "union, keep the top-k priorities".
///
/// With the default weight of 1 the priority is the hash-uniform itself
/// (no libm); weighted adds sharpen it with pow(u, 1/w), which keeps the
/// distribution property (P[selected] proportional to weight) at the cost
/// of last-ulp libm variation across platforms for weighted items.
class WeightedReservoir {
 public:
  struct Item {
    double priority{0};
    std::uint64_t id{0};
    double value{0};
  };

  explicit WeightedReservoir(std::size_t capacity = 64,
                             std::uint64_t salt = 0x5EEDFEEDDEADBEEFULL);

  void add(std::uint64_t id, double value, double weight = 1.0);
  /// Union + top-k. Throws std::invalid_argument when capacity or salt
  /// differ (the priorities would not be comparable).
  void merge(const WeightedReservoir& other);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t salt() const { return salt_; }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  /// Current sample, descending priority (deterministic id tie-break).
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

 private:
  void truncate();

  std::size_t capacity_;
  std::uint64_t salt_;
  std::uint64_t seen_{0};
  std::vector<Item> items_;
};

/// The bundle the fleet aggregates carry per metric: Welford moments and
/// min/max (exact) plus a quantile sketch (approximate percentiles), with
/// one add/merge/save/load surface. Also the single streaming-stats
/// implementation behind bench_common's seed sweeps.
class StreamSummary {
 public:
  explicit StreamSummary(std::uint32_t compression = 128)
      : sketch_(compression) {}

  void add(double x) {
    moments_.add(x);
    sketch_.add(x);
  }
  void merge(const StreamSummary& other) {
    moments_.merge(other.moments_);
    sketch_.merge(other.sketch_);
  }
  void compress() { sketch_.compress(); }

  [[nodiscard]] std::uint64_t count() const { return moments_.count(); }
  [[nodiscard]] double mean() const { return moments_.mean(); }
  [[nodiscard]] double stddev() const { return moments_.stddev(); }
  [[nodiscard]] double variance() const { return moments_.variance(); }
  [[nodiscard]] double min() const { return moments_.min(); }
  [[nodiscard]] double max() const { return moments_.max(); }
  /// Sketch percentile, q in [0, 1]; 0 on an empty summary (a fleet with
  /// zero devices has no percentiles worth throwing over).
  [[nodiscard]] double quantile(double q) const {
    return count() == 0 ? 0.0 : sketch_.quantile(q);
  }
  [[nodiscard]] const QuantileSketch& sketch() const { return sketch_; }

  void save_state(StateWriter& w) const;
  [[nodiscard]] Status load_state(StateReader& r);

 private:
  RunningStats moments_;
  QuantileSketch sketch_;
};

}  // namespace nvmsec
