// Exact batched sampling: binomial draws and multinomial count vectors.
//
// The batched stochastic fast path replaces "one RNG draw per address" with
// "one count vector per chunk": instead of sampling k addresses one by one,
// draw how many of the chunk's k writes land on each line in a single pass.
// The count vector is distributed exactly as the per-draw histogram —
// Multinomial(k; p_0..p_{n-1}) — because it is built from exact Binomial
// splits down an implicit binary tree over the weight vector: the root
// splits k between the left and right halves with Binomial(k, w_L/(w_L+w_R)),
// and so on recursively. Subtrees that receive a zero count are pruned, so a
// draw costs O(hit_lines * log n) RNG work instead of O(k).
//
// Everything here is deterministic for a fixed RNG stream: the tree shape is
// a function of the weight vector alone and the traversal order is fixed
// (left subtree first), so two runs with equal seeds produce equal vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace nvmsec {

/// Exact Binomial(n, p) variate. Inversion (BINV) for small n*p, Hörmann's
/// BTRS transformed-rejection for large n*p — both sample the exact binomial
/// law, not a normal/Poisson approximation, so recursive splits compose into
/// an exact multinomial. p outside [0, 1] is clamped; n up to 2^53 (the
/// double-precision integer range; chunk sizes are far below this).
std::uint64_t binomial_draw(Rng& rng, std::uint64_t n, double p);

/// Structure-of-arrays batch of (address, count) pairs: one chunk of a
/// stochastic attack, which the engine's write loop takes entry by entry in
/// order. Parallel vectors rather than a vector of pairs so the draw and the
/// loop each stream flat arrays. Entries may repeat an address (zipf's
/// modulo fold does); counts are always >= 1.
struct WriteCountVector {
  std::vector<std::uint64_t> addrs;
  std::vector<WriteCount> counts;

  void clear() {
    addrs.clear();
    counts.clear();
  }
  void append(std::uint64_t addr, WriteCount count) {
    addrs.push_back(addr);
    counts.push_back(count);
  }
  [[nodiscard]] std::size_t size() const { return addrs.size(); }
  [[nodiscard]] bool empty() const { return addrs.empty(); }
  /// Sum of all counts (the number of writes the vector represents).
  [[nodiscard]] WriteCount total() const;
};

/// Exact multinomial sampler over a fixed non-negative weight vector.
/// Construction is O(n) (the subtree-sum tree); draw() is O(hit * log n).
/// Reusable across draws and across threads (draw() is const and touches
/// only the caller's RNG and output).
class MultinomialSampler {
 public:
  /// Weights must be non-empty, finite, non-negative, with a positive sum.
  explicit MultinomialSampler(std::span<const double> weights);

  /// Append one entry per index that received a non-zero count, in
  /// ascending index order, with counts summing to exactly `n_draws`.
  void draw(Rng& rng, std::uint64_t n_draws, WriteCountVector& out) const;

  [[nodiscard]] std::size_t size() const { return leaves_; }

  /// Exact sampling probability of index i (for tests).
  [[nodiscard]] double probability(std::size_t i) const;

 private:
  /// Implicit complete binary tree of subtree weight sums: leaves (padded
  /// to a power of two with zero weight) live at [cap_, cap_ + leaves_),
  /// node j's children are 2j and 2j+1, the root is node 1.
  std::vector<double> tree_;
  std::size_t cap_{0};
  std::size_t leaves_{0};
  double total_{0};
};

/// Exact Multinomial(n_draws; uniform over n_outcomes) without a weight
/// table: recursive range-halving with Binomial splits. The uniform-random
/// attack uses this so it needs no per-size precomputation.
void multinomial_uniform(Rng& rng, std::uint64_t n_draws,
                         std::uint64_t n_outcomes, WriteCountVector& out);

}  // namespace nvmsec
