// Zipfian workload: a benign-application proxy, not an attack.
//
// The wear-leveling baselines exist because real workloads have skewed
// cold/hot locality; UAA's whole point is to *remove* that skew (§3.3.1).
// A Zipf(s) address stream gives the examples and tests a representative
// "normal program" against which the wear levelers visibly help — the
// contrast that makes UAA's flatness meaningful.
#pragma once

#include <memory>
#include <vector>

#include "attack/attack.h"
#include "util/alias_table.h"
#include "util/multinomial.h"

namespace nvmsec {

/// Immutable sampling machinery for a Zipf(s) rank distribution over n
/// ranks: the raw 1/k^s weights, the per-draw alias table, and the batched
/// multinomial splitter. Building all three is O(n) with large constants
/// (a pow() per rank), so instances are shared: a spare-fraction sweep over
/// N seeds would otherwise rebuild the identical tables 7·N times. All
/// members are read-only after construction and safe to share across
/// threads.
struct ZipfDist {
  std::vector<double> weights;
  AliasTable ranks;
  MultinomialSampler rank_counts;

  explicit ZipfDist(std::vector<double> w)
      : weights(std::move(w)), ranks(weights), rank_counts(weights) {}
};

/// Process-wide LRU cache of Zipf distributions keyed by (skew, max_lines),
/// shared by every zipf run, fleet devices included. The per-instance
/// placement permutation is NOT cached (it depends on the placement seed
/// and is a cheap shuffle).
/// Thread-safe; returns a shared immutable instance.
std::shared_ptr<const ZipfDist> zipf_dist(double s, std::uint64_t max_lines);

/// Cache telemetry (for tests).
std::uint64_t zipf_dist_cache_hits();
std::uint64_t zipf_dist_cache_misses();

/// Per-address stationary write rates of the Zipf workload over an address
/// space of `max_lines` lines: rates[a] = sum of P(rank k) over ranks the
/// placement permutation maps to address a. Sums to 1. Used by the
/// event-driven engine to bulk-advance a zipf phase analytically.
std::vector<double> zipf_address_rates(double s, std::uint64_t max_lines,
                                       std::uint64_t placement_seed = 1);

class ZipfWorkload final : public Attack {
 public:
  /// P(rank k) proportional to 1/k^s over `max_lines` ranks; rank-to-address
  /// assignment is a fixed pseudo-random permutation so the hot set is
  /// scattered across the address space (seeded by `placement_seed`).
  ZipfWorkload(double s, std::uint64_t max_lines,
               std::uint64_t placement_seed = 1);

  LogicalLineAddr next(Rng& rng, std::uint64_t user_lines) override;

  /// Batched draws are Multinomial(n; zipf ranks) count vectors scattered
  /// through the same placement permutation next() uses, drawn from the
  /// sampling substream: distribution-equivalent to the per-write stream.
  [[nodiscard]] BatchContract batch_contract() const override {
    return BatchContract::kDistributionEquivalent;
  }
  bool next_counts(Rng& rng, std::uint64_t user_lines, std::uint64_t n_writes,
                   WriteCountVector& out) override;

  [[nodiscard]] std::string name() const override { return "zipf"; }
  void reset() override {}

  [[nodiscard]] double skew() const { return s_; }

 private:
  double s_;
  std::uint64_t max_lines_;
  std::shared_ptr<const ZipfDist> dist_;
  /// rank -> logical address scatter.
  std::vector<std::uint32_t> placement_;
};

std::unique_ptr<Attack> make_zipf(double s, std::uint64_t max_lines,
                                  std::uint64_t placement_seed = 1);

}  // namespace nvmsec
