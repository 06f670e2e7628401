// Event-driven lifetime simulator for stationary-rate attacks.
//
// Under UAA every working index receives exactly one write per sweep
// ("round"), so per-line wear rates are piecewise constant between
// wear-outs: a backing line serving `load` working indices wears at `load`
// writes per round. That makes the next wear-out analytically computable —
// no per-write simulation — and lets the paper's full-size configuration
// (1 GB, 4.2M lines) run in milliseconds while staying *exact* at event
// granularity. Time is continuous in rounds; lifetimes are therefore exact
// to within one partial sweep (< N writes, < 0.003% of any reported
// lifetime), which we note in EXPERIMENTS.md.
//
// set_index_rates() generalizes the same machinery to any *stationary*
// per-index write-rate vector (hotspot's working set, zipf's scattered
// skew): a line's wear rate becomes the sum of its indices' rates and the
// event algebra is otherwise unchanged. This is the mean-field equivalence
// class — the count-vector fast path's per-chunk multinomial noise is
// integrated out, so event-mode lifetimes are the expected-trajectory
// limit of the stochastic engine's distribution-equivalent runs.
//
// Wear levelers are deliberately absent: under UAA a bijective remap does
// not change any line's write rate (§5.2.1 observes lifetime under UAA is
// "uncorrelated to the types of wear-leveling schemes"); the stochastic
// engine cross-checks this on scaled configurations in the tests.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "nvm/endurance_map.h"
#include "obs/observer.h"
#include "sim/lifetime.h"
#include "spare/spare_scheme.h"

namespace nvmsec {

/// run()'s working state. A caller that simulates many devices back to back
/// (ExperimentWorkspace) keeps one and lends it to each simulator. run()
/// sizes every vector on entry, so only their capacity carries over from
/// one run to the next.
struct EventScratch {
  std::vector<double> remaining;  ///< per line: write budget left
  std::vector<double> budget;     ///< per line: initial write budget
  std::vector<double> rate;       ///< per line: writes per round
  std::vector<double> last_t;     ///< per line: time wear was last settled
  std::vector<std::uint32_t> version;    ///< per line: live heap entry
  std::vector<std::uint32_t> list_head;  ///< per line: first index served
  std::vector<std::uint32_t> list_next;  ///< per index: next on its line
  std::vector<std::uint64_t> region_line_deaths;  ///< per region, if events
  std::vector<double> utilization;  ///< per line, for the final wear Gini
  /// Min-heap (std::push_heap/pop_heap, std::greater<>) of (death time in
  /// rounds, line, version at push time).
  std::vector<std::tuple<double, std::uint32_t, std::uint32_t>> heap;
};

class UniformEventSimulator {
 public:
  /// `scheme` is borrowed and must be freshly reset; the simulator drives
  /// its on_wear_out()/resolve() exactly like the stochastic engine would.
  UniformEventSimulator(std::shared_ptr<const EnduranceMap> endurance,
                        SpareScheme& scheme);

  /// Non-uniform stationary rates: `weights[i]` is working index i's
  /// relative write rate (any non-negative scale; at least one must be
  /// positive, size must equal working_lines()). Internally normalized so
  /// the mean-weight index writes once per round — a uniform weight vector
  /// reproduces the default UAA arithmetic bit-for-bit. Indices with zero
  /// weight never wear their line (but still re-home when it dies from
  /// other indices' writes). Call before run().
  void set_index_rates(std::vector<double> weights);

  /// Run until device failure. Always terminates: every event consumes a
  /// line, and the scheme must eventually report failure.
  LifetimeResult run();

  /// Borrow `scratch` for run()'s working state. nullptr (the default)
  /// uses the simulator's own. Purely an allocation strategy: the simulated
  /// trajectory is bit-identical either way.
  void set_scratch(EventScratch* scratch) { scratch_ = scratch; }

  /// Attach observability sinks. Wear-out events become trace instants
  /// (there is no Device here to emit them), counters mirror the stochastic
  /// engine's names, and snapshots fire on the same user-write cadence —
  /// sampled at event granularity, since nothing changes between events.
  /// Snapshots carry spare/mapping-table occupancy but no WearReport (the
  /// event engine tracks wear analytically, not per line).
  void set_observer(const Observer& obs);

 private:
  Observer obs_{};
  std::shared_ptr<const EnduranceMap> endurance_;
  SpareScheme& scheme_;
  EventScratch* scratch_{nullptr};
  EventScratch own_scratch_;
  /// Normalized per-index rates (writes per round); empty means uniform.
  std::vector<double> index_rates_;
};

}  // namespace nvmsec
