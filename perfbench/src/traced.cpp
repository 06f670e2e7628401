#include "traced.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "attack/zipf.h"
#include "core/maxwe.h"
#include "nvm/device.h"
#include "sim/engine.h"
#include "sim/event_sim.h"

namespace perfbench {

using namespace nvmsec;

namespace {

using Clock = std::chrono::steady_clock;

/// Hot per-write methods are timed on every kSampleEvery-th call. Prime, so
/// the sample cannot lock onto a leveler's or an attack's period (remap
/// intervals and burst lengths are round numbers) and over-sample remaps.
constexpr std::uint64_t kSampleEvery = 61;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Forward `f` and count the call; time it when the call index is a
/// multiple of `every`.
template <class F>
decltype(auto) sampled(CallStats& s, std::uint64_t every, F&& f) {
  if (s.calls++ % every != 0) return f();
  struct Stop {
    CallStats& s;
    Clock::time_point t0;
    ~Stop() {
      s.sampled_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      ++s.sampled;
    }
  } stop{s, Clock::now()};
  return f();
}

[[gnu::noinline]] void empty_call() { asm volatile(""); }

double span_overhead_ns() {
  static const double ns = [] {
    std::vector<double> spans(2001);
    for (double& d : spans) {
      CallStats c;
      sampled(c, 1, [] { empty_call(); });
      d = static_cast<double>(c.sampled_ns);
    }
    std::sort(spans.begin(), spans.end());
    return spans[spans.size() / 2];
  }();
  return ns;
}

class TracedAttack final : public Attack {
 public:
  TracedAttack(Attack& inner, LayerStats& stats) : inner_(inner), st_(stats) {}

  LogicalLineAddr next(Rng& rng, std::uint64_t user_lines) override {
    ++st_.attack_writes;
    return sampled(st_.attack_next, kSampleEvery,
                   [&] { return inner_.next(rng, user_lines); });
  }
  AttackRun next_run(Rng& rng, std::uint64_t user_lines,
                     std::uint64_t max_len) override {
    const AttackRun run = sampled(st_.attack_run, kSampleEvery, [&] {
      return inner_.next_run(rng, user_lines, max_len);
    });
    st_.attack_writes += run.count;
    return run;
  }
  [[nodiscard]] BatchContract batch_contract() const override {
    ++st_.attack_contract_calls;
    return inner_.batch_contract();
  }
  bool next_counts(Rng& rng, std::uint64_t user_lines, std::uint64_t n_writes,
                   WriteCountVector& out) override {
    const bool drew = sampled(st_.attack_counts, 1, [&] {
      return inner_.next_counts(rng, user_lines, n_writes, out);
    });
    if (drew) st_.attack_writes += out.total();
    return drew;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  void save_state(StateWriter& w) const override { inner_.save_state(w); }
  [[nodiscard]] Status load_state(StateReader& r) override {
    return inner_.load_state(r);
  }

 private:
  Attack& inner_;
  LayerStats& st_;
};

class TracedWearLeveler final : public WearLeveler {
 public:
  TracedWearLeveler(WearLeveler& inner, LayerStats& stats)
      : inner_(inner), st_(stats) {}

  [[nodiscard]] std::uint64_t logical_lines() const override {
    return inner_.logical_lines();
  }
  [[nodiscard]] std::uint64_t working_lines() const override {
    return inner_.working_lines();
  }
  [[nodiscard]] std::uint64_t translate(LogicalLineAddr la) const override {
    return sampled(st_.wl_translate, kSampleEvery,
                   [&] { return inner_.translate(la); });
  }
  void on_write(LogicalLineAddr la, Rng& rng,
                std::vector<WlPhysWrite>& out) override {
    sampled(st_.wl_on_write, kSampleEvery,
            [&] { inner_.on_write(la, rng, out); });
  }
  [[nodiscard]] std::uint64_t writes_until_remap() const override {
    ++st_.wl_until_remap_calls;
    return inner_.writes_until_remap();
  }
  void commit_batched_writes(std::uint64_t k) override {
    ++st_.wl_commit_calls;
    st_.wl_batched_writes += k;
    inner_.commit_batched_writes(k);
  }
  [[nodiscard]] std::uint64_t mapping_epoch() const override {
    ++st_.wl_epoch_calls;
    return inner_.mapping_epoch();
  }
  [[nodiscard]] std::uint64_t remap_interval() const override {
    return inner_.remap_interval();
  }
  bool set_remap_interval(std::uint64_t interval) override {
    return inner_.set_remap_interval(interval);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] WriteCount overhead_writes() const override {
    return inner_.overhead_writes();
  }
  void reset() override { inner_.reset(); }
  void save_state(StateWriter& w) const override { inner_.save_state(w); }
  [[nodiscard]] Status load_state(StateReader& r) override {
    return inner_.load_state(r);
  }

 private:
  WearLeveler& inner_;
  LayerStats& st_;
};

class TracedSpareScheme final : public SpareScheme {
 public:
  TracedSpareScheme(SpareScheme& inner, LayerStats& stats)
      : inner_(inner), st_(stats), seen_epoch_(inner.mapping_epoch()) {}

  [[nodiscard]] std::uint64_t working_lines() const override {
    return inner_.working_lines();
  }
  [[nodiscard]] PhysLineAddr working_line(std::uint64_t idx) const override {
    return inner_.working_line(idx);
  }
  PhysLineAddr resolve(std::uint64_t idx) override {
    const PhysLineAddr line = sampled(st_.spare_resolve, kSampleEvery,
                                      [&] { return inner_.resolve(idx); });
    sync_epoch();
    return line;
  }
  bool on_wear_out(std::uint64_t idx) override {
    const bool rescued =
        sampled(st_.spare_rescue, 1, [&] { return inner_.on_wear_out(idx); });
    sync_epoch();
    return rescued;
  }
  [[nodiscard]] bool resolve_cacheable() const override {
    ++st_.spare_cacheable_calls;
    return inner_.resolve_cacheable();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] SpareSchemeStats stats() const override {
    return inner_.stats();
  }
  void reset() override {
    inner_.reset();
    sync_epoch();
  }
  bool rebind(const std::shared_ptr<const EnduranceMap>& endurance,
              Rng& rng) override {
    const bool ok = inner_.rebind(endurance, rng);
    sync_epoch();
    return ok;
  }
  void set_observer(const Observer& obs) override { inner_.set_observer(obs); }
  void save_state(StateWriter& w) const override { inner_.save_state(w); }
  [[nodiscard]] Status load_state(StateReader& r) override {
    Status st = inner_.load_state(r);
    sync_epoch();
    return st;
  }

 private:
  /// SpareScheme::mapping_epoch() is not virtual: the engine reads this
  /// decorator's own counter, so advance it whenever the wrapped scheme's
  /// advanced, or the resolve cache would serve stale lines.
  void sync_epoch() {
    const std::uint64_t e = inner_.mapping_epoch();
    if (e == seen_epoch_) return;
    seen_epoch_ = e;
    bump_mapping_epoch();
    ++st_.spare_epoch_bumps;
  }

  SpareScheme& inner_;
  LayerStats& st_;
  std::uint64_t seen_epoch_;
};

/// run_experiment's spare-scheme construction, through the public factories.
std::unique_ptr<SpareScheme> make_spare(
    const ExperimentConfig& config,
    const std::shared_ptr<const EnduranceMap>& map, Rng& rng) {
  const std::string& name = config.spare_scheme;
  if (name == "none") return make_no_spare(map);
  const std::uint64_t spare_lines = config.spare_lines();
  if (name == "pcd") return make_pcd(map, spare_lines, rng);
  if (name == "ps") return make_ps(map, spare_lines, rng);
  if (name == "ps-worst") return make_ps_worst(map, spare_lines, rng);
  if (name == "maxwe") {
    MaxWeParams params;
    params.spare_fraction = config.spare_fraction;
    params.swr_fraction = config.swr_fraction;
    return make_maxwe(map, params);
  }
  throw std::invalid_argument("perfbench: unsupported spare scheme '" + name +
                              "'");
}

std::unique_ptr<Attack> make_stochastic_attack(const ExperimentConfig& config,
                                               std::uint64_t working_lines) {
  if (config.attack == "bpa") return make_bpa(config.bpa_burst);
  if (config.attack == "zipf") {
    return make_zipf(config.zipf_skew, working_lines, config.seed);
  }
  if (config.attack == "hotspot") {
    return make_hotspot(config.hotspot_working_set);
  }
  return make_attack(config.attack);
}

/// run_experiment's event-mode rate vector for a stationary attack.
std::vector<double> event_rates(const ExperimentConfig& config,
                                std::uint64_t working_lines) {
  if (config.attack == "uaa" || config.attack == "random") return {};
  if (config.attack == "hotspot") {
    std::vector<double> weights(working_lines, 0.0);
    const std::uint64_t set =
        std::min(config.hotspot_working_set, working_lines);
    for (std::uint64_t i = 0; i < set; ++i) weights[i] = 1.0;
    return weights;
  }
  if (config.attack == "zipf") {
    return zipf_address_rates(config.zipf_skew, working_lines, config.seed);
  }
  throw std::invalid_argument("perfbench: attack '" + config.attack +
                              "' has no event-mode rate vector");
}

void validate(const ExperimentConfig& c) {
  const bool supported =
      (c.mode == SimulationMode::kUniformEvent ||
       c.mode == SimulationMode::kStochastic) &&
      c.line_jitter_sigma == 0 && !c.fault.device.any() &&
      !c.fault.metadata.any() && !c.detect && !c.adaptive &&
      c.dram_buffer_lines == 0 && c.checkpoint_interval == 0 &&
      c.resume_from.empty() && c.mixed_phases.empty() &&
      c.observer.events == nullptr && c.observer.profiler == nullptr &&
      c.observer.metrics == nullptr && c.observer.trace == nullptr &&
      c.observer.snapshots == nullptr && c.hotspot_working_set > 0 &&
      (c.mode == SimulationMode::kStochastic || c.wear_leveler == "none");
  if (!supported) {
    throw std::invalid_argument(
        "perfbench: the traced pipeline covers plain event/stochastic "
        "configs only");
  }
}

}  // namespace

double CallStats::est_seconds() const {
  if (sampled == 0) return 0.0;
  const double net_ns = std::max(
      0.0, static_cast<double>(sampled_ns) -
               static_cast<double>(sampled) * span_overhead_ns());
  return net_ns * 1e-9 * static_cast<double>(calls) /
         static_cast<double>(sampled);
}

double LayerStats::engine_self_s() const {
  if (engine_run_s == 0) return 0.0;
  return engine_run_s -
         (attack_next.est_seconds() + attack_run.est_seconds() +
          attack_counts.est_seconds() + wl_on_write.est_seconds() +
          wl_translate.est_seconds() + spare_resolve.est_seconds() +
          spare_rescue.est_seconds());
}

double LayerStats::event_self_s() const {
  if (event_run_s == 0) return 0.0;
  return event_run_s -
         (spare_resolve.est_seconds() + spare_rescue.est_seconds());
}

BootedDevice boot_device(const ExperimentConfig& config, LayerStats& stats) {
  validate(config);
  BootedDevice dev;
  dev.rng = Rng(config.seed);

  auto t0 = Clock::now();
  dev.map = std::make_shared<const EnduranceMap>(EnduranceMap::from_model(
      config.geometry, EnduranceModel(config.endurance), dev.rng));
  stats.map_boot_s += seconds_since(t0);

  t0 = Clock::now();
  dev.spare = make_spare(config, dev.map, dev.rng);
  stats.spare_boot_s += seconds_since(t0);
  const std::uint64_t u = dev.spare->working_lines();

  if (config.mode == SimulationMode::kUniformEvent) {
    t0 = Clock::now();
    dev.event_rates = event_rates(config, u);
    stats.attack_boot_s += seconds_since(t0);
    return dev;
  }

  t0 = Clock::now();
  dev.attack = make_stochastic_attack(config, u);
  stats.attack_boot_s += seconds_since(t0);

  t0 = Clock::now();
  EnduranceView view(u);
  for (std::uint64_t i = 0; i < u; ++i) {
    view[i] = dev.map->line_endurance(dev.spare->working_line(i));
  }
  WearLevelerParams wl_params = config.wl;
  if (wl_params.group_lines == 0 &&
      u % config.geometry.lines_per_region() == 0) {
    wl_params.group_lines = config.geometry.lines_per_region();
  }
  dev.wl = make_wear_leveler(config.wear_leveler, u, view, wl_params, dev.rng);
  stats.wl_boot_s += seconds_since(t0);
  return dev;
}

LifetimeResult run_traced(const ExperimentConfig& config, LayerStats& stats) {
  BootedDevice dev = boot_device(config, stats);
  TracedSpareScheme spare(*dev.spare, stats);
  LifetimeResult result;
  if (config.mode == SimulationMode::kUniformEvent) {
    UniformEventSimulator sim(dev.map, spare);
    if (!dev.event_rates.empty()) sim.set_index_rates(std::move(dev.event_rates));
    sim.set_observer(config.observer);
    const auto t0 = Clock::now();
    result = sim.run();
    stats.event_run_s += seconds_since(t0);
    stats.event_line_deaths += result.line_deaths;
    // No leveler and no buffer: every user write reaches the device.
    stats.device_writes += static_cast<std::uint64_t>(result.user_writes);
  } else {
    TracedAttack attack(*dev.attack, stats);
    TracedWearLeveler wl(*dev.wl, stats);
    const std::uint64_t epoch_before = dev.wl->mapping_epoch();
    Device device(dev.map);
    Engine engine(device, attack, wl, spare, dev.rng);
    engine.set_fast_path(config.fastpath);
    engine.set_observer(config.observer);
    const auto t0 = Clock::now();
    result = engine.run(config.max_user_writes);
    stats.engine_run_s += seconds_since(t0);
    stats.wl_remaps += dev.wl->mapping_epoch() - epoch_before;
    stats.wl_migration_writes += result.overhead_writes;
    stats.device_writes += result.device_writes;
  }
  stats.wear_outs += result.line_deaths;
  stats.user_writes += result.user_writes;
  return result;
}


std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

/// Every LifetimeResult field, doubles by bit pattern.
std::string result_bytes(const LifetimeResult& r) {
  std::string bytes;
  const auto put = [&bytes](std::uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(std::bit_cast<std::uint64_t>(r.user_writes));
  put(r.overhead_writes);
  put(r.absorbed_writes);
  put(r.device_writes);
  put(std::bit_cast<std::uint64_t>(r.ideal_lifetime));
  put(std::bit_cast<std::uint64_t>(r.normalized));
  put(r.line_deaths);
  put(r.failed ? 1 : 0);
  put(std::bit_cast<std::uint64_t>(r.wear_gini));
  put(r.windows_observed);
  put(r.anomalous_windows);
  put(r.alarms_raised);
  put(r.windows_in_alarm);
  put(r.cadence_changes);
  bytes += r.failure_reason;
  return bytes;
}

}  // namespace

bool same_result(const LifetimeResult& a, const LifetimeResult& b) {
  return result_bytes(a) == result_bytes(b);
}

std::uint64_t result_digest(const LifetimeResult& r) {
  return fnv1a(result_bytes(r));
}

}  // namespace perfbench
