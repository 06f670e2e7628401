#include "sim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace nvmsec {

namespace {
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
}  // namespace

UniformEventSimulator::UniformEventSimulator(
    std::shared_ptr<const EnduranceMap> endurance, SpareScheme& scheme)
    : endurance_(std::move(endurance)), scheme_(scheme) {
  if (!endurance_) {
    throw std::invalid_argument("UniformEventSimulator: null endurance map");
  }
  if (endurance_->geometry().num_lines() > UINT32_MAX) {
    throw std::invalid_argument(
        "UniformEventSimulator: device exceeds 2^32 lines");
  }
  if (scheme_.working_lines() == 0) {
    throw std::invalid_argument("UniformEventSimulator: empty working set");
  }
}

void UniformEventSimulator::set_observer(const Observer& obs) {
  obs_ = obs;
  scheme_.set_observer(obs);
}

void UniformEventSimulator::set_index_rates(std::vector<double> weights) {
  const std::uint64_t u = scheme_.working_lines();
  if (weights.size() != u) {
    throw std::invalid_argument(
        "UniformEventSimulator::set_index_rates: weight count " +
        std::to_string(weights.size()) + " != working lines " +
        std::to_string(u));
  }
  double total = 0.0;
  for (const double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "UniformEventSimulator::set_index_rates: weights must be finite "
          "and non-negative");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument(
        "UniformEventSimulator::set_index_rates: weight sum must be > 0");
  }
  // Normalize so the mean-weight index writes once per round: rates sum to
  // u, and a uniform input becomes exactly 1.0 per index (reproducing the
  // unweighted arithmetic bit-for-bit).
  const double scale = static_cast<double>(u) / total;
  for (double& w : weights) w *= scale;
  index_rates_ = std::move(weights);
}

LifetimeResult UniformEventSimulator::run() {
  const DeviceGeometry& geom = endurance_->geometry();
  const std::uint64_t n = geom.num_lines();
  const std::uint64_t u = scheme_.working_lines();
  const ScopedTimer run_span(obs_.trace, "event_sim.run");
  const ScopedProfPhase prof_span(obs_.profiler, ProfPhase::kEventRun);

  // Working state: the caller's scratch via set_scratch() when many
  // devices run back to back, the simulator's own otherwise.
  EventScratch& scratch = scratch_ != nullptr ? *scratch_ : own_scratch_;

  // Integer budgets identical to Device's rounding, kept as doubles for the
  // continuous-time arithmetic.
  scratch.remaining.resize(n);
  const std::span<double> remaining(scratch.remaining);
  for (std::uint64_t l = 0; l < n; ++l) {
    remaining[l] = static_cast<double>(static_cast<WriteCount>(std::llround(
        std::max(1.0, endurance_->line_endurance(PhysLineAddr{l})))));
  }

  // Initial budgets, kept so per-line utilization (consumed / budget) can be
  // reported at end of run — the event-driven analogue of analyze_wear().
  scratch.budget.assign(remaining.begin(), remaining.end());
  const std::span<const double> budget(scratch.budget);

  // Per-index write rate (writes per round): 1.0 everywhere in the uniform
  // default, the normalized weight vector otherwise. A line's wear rate is
  // the sum over the indices it serves — integer-valued doubles in the
  // uniform case, so the weighted code path reproduces the historical
  // uint32 load arithmetic exactly.
  const bool weighted = !index_rates_.empty();
  const auto idx_rate = [&](std::uint32_t idx) {
    return weighted ? index_rates_[idx] : 1.0;
  };

  scratch.rate.assign(n, 0.0);
  scratch.last_t.assign(n, 0.0);
  scratch.version.assign(n, 0);
  const std::span<double> rate(scratch.rate);
  const std::span<double> last_t(scratch.last_t);
  const std::span<std::uint32_t> version(scratch.version);
  // Reverse map backing line -> working indices, as intrusive lists.
  scratch.list_head.assign(n, kNone);
  scratch.list_next.assign(u, kNone);
  const std::span<std::uint32_t> list_head(scratch.list_head);
  const std::span<std::uint32_t> list_next(scratch.list_next);

  for (std::uint64_t idx = 0; idx < u; ++idx) {
    const std::uint64_t b = scheme_.resolve(idx).value();
    list_next[idx] = list_head[b];
    list_head[b] = static_cast<std::uint32_t>(idx);
    rate[b] += idx_rate(static_cast<std::uint32_t>(idx));
  }

  // The death heap: reserving up front makes the common case (deaths ≈
  // lines) grow-free. push and pop are the calls std::priority_queue makes.
  auto& heap = scratch.heap;
  heap.clear();
  heap.reserve(n + 64);
  const auto push = [&heap](double death_time, std::uint64_t line,
                            std::uint32_t v) {
    heap.emplace_back(death_time, static_cast<std::uint32_t>(line), v);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  for (std::uint64_t l = 0; l < n; ++l) {
    if (rate[l] > 0.0) push(remaining[l] / rate[l], l, version[l]);
  }

  // Accrue wear on `l` up to time `t` under its current rate.
  const auto settle = [&](std::uint64_t l, double t) {
    remaining[l] -= (t - last_t[l]) * rate[l];
    if (remaining[l] < 0) remaining[l] = 0;  // floating-point slack only
    last_t[l] = t;
  };

  LifetimeResult result;
  result.ideal_lifetime = endurance_->ideal_lifetime();

  double t = 0.0;
  std::uint64_t deaths = 0;
  // Per-region death counts for region_wear_out events; every line dies at
  // most once here (dead lines are never re-homed onto), so exact.
  std::span<std::uint64_t> region_line_deaths;
  if (obs_.events != nullptr) {
    scratch.region_line_deaths.assign(geom.num_regions(), 0);
    region_line_deaths = scratch.region_line_deaths;
  }

  while (!heap.empty() && !result.failed) {
    const auto [death_time, line, v] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    if (v != version[line] || rate[line] <= 0.0) continue;  // stale entry

    t = death_time;
    remaining[line] = 0;
    last_t[line] = t;
    ++version[line];
    ++deaths;

    if (obs_.events != nullptr) {
      // The write clock is the continuous-time equivalent: t rounds of u
      // uniform user writes each.
      obs_.events->set_now(t * static_cast<double>(u));
      const RegionId region = geom.region_of(PhysLineAddr{line});
      if (++region_line_deaths[region.value()] == geom.lines_per_region()) {
        obs_.events->emit(
            "region_wear_out",
            {{"region", static_cast<double>(region.value())}});
      }
    }
    if (obs_.trace != nullptr) {
      obs_.trace->instant(
          "wear_out",
          {{"line", static_cast<double>(line)},
           {"region",
            static_cast<double>(geom.region_of(PhysLineAddr{line}).value())},
           {"sim_rounds", t},
           {"worn_out_lines", static_cast<double>(deaths)}});
    }
    if (obs_.snapshots != nullptr &&
        obs_.snapshots->due(t * static_cast<double>(u))) {
      SnapshotContext ctx;
      ctx.spare = &scheme_;
      ctx.user_writes = t * static_cast<double>(u);
      ctx.sim_rounds = t;
      obs_.snapshots->snapshot(ctx);
      if (obs_.trace != nullptr) {
        const SpareSchemeStats s = scheme_.stats();
        obs_.trace->counter(
            "wear",
            {{"line_deaths", static_cast<double>(deaths)},
             {"spares_remaining", static_cast<double>(s.spares_remaining)},
             {"lmt_entries", static_cast<double>(s.lmt_entries)}});
      }
    }

    // Re-home every working index the dead line was serving.
    const ScopedProfPhase rescue_span(obs_.profiler, ProfPhase::kEventRescue);
    if (obs_.profiler != nullptr) {
      obs_.profiler->add(ProfCounter::kRescueEvents);
    }
    std::uint32_t idx = list_head[line];
    list_head[line] = kNone;
    rate[line] = 0.0;
    while (idx != kNone) {
      const std::uint32_t next_idx = list_next[idx];
      // A replacement can land on a line whose own wear-out falls at this
      // exact round (ties are common: every line of a region shares its
      // endurance). Such a replacement is worn out by its very next write,
      // so keep replacing until the backing has capacity left.
      std::uint64_t nb = 0;
      bool replaced = false;
      while (true) {
        if (!scheme_.on_wear_out(idx)) break;
        nb = scheme_.resolve(idx).value();
        settle(nb, t);
        if (remaining[nb] > 0) {
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        result.failed = true;
        result.failure_reason = "unreplaceable wear-out at working index " +
                                std::to_string(idx) + " (line " +
                                std::to_string(line) + ") after " +
                                std::to_string(deaths) + " line deaths";
        if (obs_.events != nullptr) {
          obs_.events->emit(
              "end_of_life",
              {{"cause", "unreplaceable_wear_out"},
               {"working_index", static_cast<double>(idx)},
               {"line", static_cast<double>(line)},
               {"region", static_cast<double>(
                              geom.region_of(PhysLineAddr{line}).value())},
               {"user_writes", t * static_cast<double>(u)},
               {"line_deaths", static_cast<double>(deaths)}});
        }
        break;
      }
      list_next[idx] = list_head[nb];
      list_head[nb] = idx;
      rate[nb] += idx_rate(idx);
      ++version[nb];
      if (rate[nb] > 0.0) push(t + remaining[nb] / rate[nb], nb, version[nb]);
      idx = next_idx;
    }
  }

  if (!result.failed) {
    // Defensive: with the bundled schemes failure always precedes heap
    // exhaustion, but a custom scheme with unbounded spares could get here.
    result.failed = true;
    result.failure_reason = "all backed lines worn out";
    if (obs_.events != nullptr) {
      obs_.events->emit("end_of_life",
                        {{"cause", "all_backed_lines_worn"},
                         {"user_writes", t * static_cast<double>(u)},
                         {"line_deaths", static_cast<double>(deaths)}});
    }
  }

  result.user_writes = t * static_cast<double>(u);
  result.line_deaths = deaths;
  result.normalized = result.ideal_lifetime > 0
                          ? result.user_writes / result.ideal_lifetime
                          : 0.0;

  // Per-line utilization Gini at end of run, matching analyze_wear()'s
  // definition. Lines still under load accrued wear since their last
  // settle; bring every line up to the failure time first.
  scratch.utilization.resize(n);
  for (std::uint64_t l = 0; l < n; ++l) {
    if (rate[l] > 0.0) settle(l, t);
    scratch.utilization[l] =
        budget[l] > 0 ? (budget[l] - remaining[l]) / budget[l] : 0.0;
  }
  result.wear_gini = gini_in_place(scratch.utilization);

  if (obs_.events != nullptr) {
    obs_.events->set_now(result.user_writes);
    obs_.events->emit("run_end",
                      {{"outcome", "device_failure"},
                       {"user_writes", result.user_writes},
                       {"line_deaths", static_cast<double>(deaths)}});
  }
  if (obs_.metrics != nullptr) {
    // Mirror the stochastic engine's metric names so downstream tooling
    // reads either engine's output unchanged.
    MetricsRegistry& m = *obs_.metrics;
    m.counter("engine.user_writes")
        .set(static_cast<std::uint64_t>(result.user_writes));
    m.counter("engine.line_deaths").set(deaths);
    m.counter("device.wear_outs").set(deaths);
    const SpareSchemeStats s = scheme_.stats();
    m.counter("spare.replacements").set(s.replacements);
    m.gauge("spare.spares_remaining")
        .set(static_cast<double>(s.spares_remaining));
    m.gauge("spare.lmt_entries").set(static_cast<double>(s.lmt_entries));
    m.gauge("spare.rmt_entries").set(static_cast<double>(s.rmt_entries));
    m.gauge("event_sim.rounds").set(t);
  }
  if (obs_.snapshots != nullptr) {
    SnapshotContext ctx;
    ctx.spare = &scheme_;
    ctx.user_writes = result.user_writes;
    ctx.sim_rounds = t;
    obs_.snapshots->snapshot_now(ctx);
  }
  return result;
}

}  // namespace nvmsec
