#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "obs/heartbeat.h"
#include "obs/json_parse.h"
#include "obs/profiler.h"
#include "sim/parallel.h"
#include "traced.h"
#include "util/stats.h"
#include "wearlevel/wear_leveler.h"

namespace perfbench {

using namespace nvmsec;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Half of the 4-core box the workloads were sized on stays free.
constexpr std::size_t kFleetJobs = 2;

/// Fast-path gate band for distribution-equivalent attacks
/// (scripts/bench_sweep_timing.sh, BENCH_fastpath.json).
constexpr double kZipfBand = 0.20;

// ---------------------------------------------------------------------------
// Recorded results at each workload's default seed (RelWithDebInfo build,
// g++ 12, x86-64). Event UAA and BPA are deterministic to the bit; zipf is
// distribution-equivalent across sampling changes, so it is held to a band.

struct DeviceRef {
  double user_writes;
  std::uint64_t overhead_writes;
  std::uint64_t line_deaths;
};

/// tbl_uaa_1gb, seed 42: none, maxwe, pcd, ps, ps-worst.
const std::vector<DeviceRef> kTblRef = {
    {36460757516288.0, 0, 1},       {183996842600448.0, 0, 419841},
    {135271119060992.0, 0, 419839}, {132725399300096.0, 0, 419841},
    {125585853440000.0, 0, 419841},
};
/// fig8_bpa_maxwe, seeds 7 and 8 under tlsr, pcms, bwl, wawl.
const std::vector<DeviceRef> kFig8Ref = {
    {36169684, 6336040, 194}, {37743944, 6621476, 172},
    {40624268, 4060210, 208}, {42475496, 4245098, 204},
    {65321044, 6528112, 209}, {65372508, 6533240, 205},
    {79167124, 7842517, 170}, {80687657, 8009118, 135},
};
/// zipf_counts_64k, seeds 11, 12, 13.
const std::vector<DeviceRef> kZipfRef = {
    {278434038, 0, 659},
    {279933226, 0, 652},
    {269516997, 0, 660},
};
/// fleet_mix, seed_start 1: FNV-1a of fleet_result_json.
constexpr std::uint64_t kFleetDigest = 0x77a926329fbb4a3cULL;

const std::vector<DeviceRef>* reference_for(const Workload& w) {
  if (w.name == "tbl_uaa_1gb") return &kTblRef;
  if (w.name == "fig8_bpa_maxwe") return &kFig8Ref;
  if (w.name == "zipf_counts_64k") return &kZipfRef;
  return nullptr;
}

/// Paper §5.3.1 lifetimes (%) in tbl_uaa_1gb's scheme order.
constexpr double kPaperTbl[] = {4.1, 43.1, 30.6, 30.6, 28.5};
/// Paper Fig. 8 geometric mean of the Max-WE column (%).
constexpr double kPaperFig8MaxweGmean = 47.4;

// ---------------------------------------------------------------------------
// Output checks

/// Empty when `r` passes; otherwise why it failed.
std::string check_device(const ExperimentConfig& c, const LifetimeResult& r,
                         const DeviceRef* ref, bool banded) {
  if (!r.failed) return "device did not fail";
  if (c.mode == SimulationMode::kStochastic) {
    const auto user = static_cast<std::uint64_t>(r.user_writes);
    if (static_cast<double>(user) != r.user_writes) {
      return "non-integral user writes";
    }
    if (r.device_writes != user - r.absorbed_writes + r.overhead_writes) {
      return "write conservation violated (device != user - absorbed + "
             "overhead)";
    }
  } else if (r.overhead_writes != 0 || r.absorbed_writes != 0 ||
             r.device_writes != 0) {
    return "event engine reported leveler, buffer or device writes";
  }
  if (ref != nullptr) {
    if (banded) {
      if (std::fabs(r.user_writes / ref->user_writes - 1.0) > kZipfBand) {
        return "lifetime outside the recorded value's band";
      }
    } else if (r.user_writes != ref->user_writes ||
               r.overhead_writes != ref->overhead_writes ||
               r.line_deaths != ref->line_deaths) {
      return "differs from the recorded result";
    }
  }
  return {};
}

/// Checks a whole pass; returns the number of failed devices.
std::uint64_t check_pass(const Workload& w, std::uint64_t seed, bool small,
                         const std::vector<ExperimentConfig>& configs,
                         const std::vector<LifetimeResult>& results) {
  const std::vector<DeviceRef>* refs =
      seed == w.default_seed && !small ? reference_for(w) : nullptr;
  if (refs != nullptr && refs->size() != configs.size()) {
    throw std::logic_error("perfbench: " + w.name +
                           " has no recorded result for every device");
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string why =
        check_device(configs[i], results[i],
                     refs != nullptr ? &(*refs)[i] : nullptr,
                     configs[i].attack == "zipf");
    if (!why.empty()) {
      ++failed;
      std::printf("CHECK FAILED: device %zu (%s/%s/%s seed %llu): %s\n", i,
                  configs[i].attack.c_str(),
                  configs[i].wear_leveler.c_str(),
                  configs[i].spare_scheme.c_str(),
                  static_cast<unsigned long long>(configs[i].seed),
                  why.c_str());
    }
  }
  return failed;
}

/// Empty when the fleet result passes; otherwise why it failed.
std::string check_fleet(const Workload& w, std::uint64_t seed, bool small,
                        const FleetSpec& spec, const FleetResult& result,
                        std::uint64_t digest) {
  if (!result.complete()) return "campaign incomplete";
  if (result.aggregate.devices != spec.devices) return "device count differs";
  for (const auto& [cause, count] : result.aggregate.failure_causes) {
    if (cause != kCauseUnreplaceableWearOut &&
        cause != kCauseAllBackedLinesWorn) {
      return "devices ended without failing (" + cause + ")";
    }
  }
  if (seed == w.default_seed && !small && digest != kFleetDigest) {
    return "fleet result differs from the recorded digest";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Human-readable report (stdout, before the result line)

void print_devices(const std::vector<ExperimentConfig>& configs,
                   const std::vector<LifetimeResult>& results) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const LifetimeResult& r = results[i];
    std::printf(
        "device %zu: %s wl=%s spare=%s seed=%llu user_writes=%.17g "
        "overhead=%llu device_writes=%llu line_deaths=%llu lifetime=%.4f%%\n",
        i, configs[i].attack.c_str(), configs[i].wear_leveler.c_str(),
        configs[i].spare_scheme.c_str(),
        static_cast<unsigned long long>(configs[i].seed), r.user_writes,
        static_cast<unsigned long long>(r.overhead_writes),
        static_cast<unsigned long long>(r.device_writes),
        static_cast<unsigned long long>(r.line_deaths), 100.0 * r.normalized);
  }
}

void print_paper_comparison(const Workload& w,
                            const std::vector<ExperimentConfig>& configs,
                            const std::vector<LifetimeResult>& results) {
  if (w.name == "tbl_uaa_1gb") {
    std::printf("Table 5.3.1 (UAA, 10%% spares): measured vs paper\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("  %-9s %7.4f%%   paper %5.1f%%\n",
                  configs[i].spare_scheme.c_str(),
                  100.0 * results[i].normalized, kPaperTbl[i]);
    }
  } else if (w.name == "fig8_bpa_maxwe") {
    std::printf("Fig. 8 Max-WE column (BPA, 2-seed means): measured\n");
    std::vector<double> means;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const double mean =
          0.5 * (results[i].normalized + results[i + 1].normalized);
      means.push_back(mean);
      std::printf("  %-5s %7.4f%%\n", configs[i].wear_leveler.c_str(),
                  100.0 * mean);
    }
    std::printf("  Gmean %7.4f%%   paper %4.1f%%\n",
                100.0 * geometric_mean(means), kPaperFig8MaxweGmean);
  }
}

// ---------------------------------------------------------------------------
// Set-up: boot the workload's devices through the public constructors.

/// Median over boot rounds of the time to boot every device in `configs`
/// (teardown excluded). The first round also fills process-wide caches
/// such as zipf's sampler cache. At least five rounds, more until a
/// second of boots has been sampled: sub-millisecond boots need thousands
/// of rounds before their median stops moving with host noise.
double measure_setup(const std::vector<ExperimentConfig>& configs) {
  std::vector<double> rounds;
  double total = 0;
  while (rounds.size() < 5 || (total < 1.0 && rounds.size() < 10000)) {
    double round = 0;
    for (const ExperimentConfig& c : configs) {
      LayerStats unused;
      const auto t0 = Clock::now();
      const BootedDevice booted = boot_device(c, unused);
      round += since(t0);
    }
    rounds.push_back(round);
    total += round;
  }
  return median(rounds);
}

std::vector<ExperimentConfig> first_shard_configs(const FleetSpec& spec) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t d = 0; d < std::min(spec.shard_size, spec.devices); ++d) {
    configs.push_back(fleet_device_config(spec, d));
  }
  return configs;
}

std::string journal_path(const std::string& scratch_dir) {
  return scratch_dir + "/fleet_mix." + std::to_string(getpid()) + ".journal";
}

/// A timed run repeats the whole batch job in passes and times every unit
/// of the job separately: each device for run_experiments workloads, the
/// whole campaign for the fleet. wall_s sums each unit's fastest time
/// across passes. Host noise on a shared box only ever slows a unit down
/// (a neighbour evicting the shared cache can make a memory-bound device
/// take twice as long for tens of seconds), so the per-unit minimum is the
/// estimate that moves least with it, without changing the job measured.
struct Timing {
  std::vector<std::vector<double>> unit_s;  ///< [unit][pass] seconds
  double sim_writes_per_pass{0};
  std::uint64_t lifetimes_per_pass{0};
};

void add_end_to_end(Outcome& out, const Timing& t, double setup_s) {
  double wall_s = 0;
  for (const std::vector<double>& samples : t.unit_s) {
    wall_s += *std::min_element(samples.begin(), samples.end());
  }
  out.metrics = {
      {"wall_s", wall_s, "s"},
      {"setup_s", setup_s, "s"},
      {"sim_writes_per_s", ratio(t.sim_writes_per_pass, wall_s), "1/s"},
      {"lifetimes_per_s",
       ratio(static_cast<double>(t.lifetimes_per_pass), wall_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("passes: %zu, batch wall (sum of unit minima) %.3f s\n",
              t.unit_s.front().size(), wall_s);
  for (std::size_t u = 0; u < t.unit_s.size(); ++u) {
    std::printf("unit %zu seconds:", u);
    for (const double s : t.unit_s[u]) std::printf(" %.4f", s);
    std::printf("\n");
  }
}

Outcome timed_experiments(const Workload& w, std::uint64_t seed,
                          double seconds, bool small) {
  Outcome out;
  const std::vector<ExperimentConfig> configs =
      experiment_configs(w, seed, small);
  const std::size_t n = configs.size();
  const double setup_s = measure_setup(configs);
  Timing t;
  t.unit_s.resize(n);
  t.lifetimes_per_pass = n;
  std::vector<LifetimeResult> results(n);
  ParallelOptions options;
  options.jobs = 1;
  const auto start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || since(start) < seconds; ++pass) {
    out.attempted += n;
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        results[i] =
            run_experiments(std::span(configs).subspan(i, 1), options).front();
        t.unit_s[i].push_back(since(t0));
      }
    } catch (const std::exception& e) {
      std::printf("RUN FAILED: %s\n", e.what());
      out.failed += n;
      out.correct = false;
      break;
    }
    out.failed += check_pass(w, seed, small, configs, results);
    if (pass == 0) {
      for (const LifetimeResult& r : results) {
        t.sim_writes_per_pass +=
            r.user_writes + static_cast<double>(r.overhead_writes);
      }
      print_devices(configs, results);
      print_paper_comparison(w, configs, results);
    }
  }
  add_end_to_end(out, t, setup_s);
  return out;
}

std::uint64_t fleet_digest(const FleetSpec& spec, const FleetResult& result) {
  return fnv1a(fleet_result_json(spec, result));
}

Outcome timed_fleet(const Workload& w, std::uint64_t seed, double seconds,
                    bool small, const std::string& scratch_dir) {
  Outcome out;
  const FleetSpec spec = fleet_spec(seed, small);
  const double setup_s = measure_setup(first_shard_configs(spec));
  const std::string journal = journal_path(scratch_dir);
  Timing t;
  t.unit_s.resize(1);
  t.lifetimes_per_pass = spec.devices;
  FleetOptions options;
  options.jobs = kFleetJobs;
  options.checkpoint_path = journal;
  const auto start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || since(start) < seconds; ++pass) {
    out.attempted += spec.devices;
    std::filesystem::remove(journal);
    FleetResult result;
    try {
      const auto t0 = Clock::now();
      result = run_fleet(spec, options);
      t.unit_s[0].push_back(since(t0));
    } catch (const std::exception& e) {
      std::printf("RUN FAILED: %s\n", e.what());
      out.failed += spec.devices;
      out.correct = false;
      break;
    }
    const std::uint64_t digest = fleet_digest(spec, result);
    if (const std::string why =
            check_fleet(w, seed, small, spec, result, digest);
        !why.empty()) {
      std::printf("CHECK FAILED: fleet: %s\n", why.c_str());
      out.failed += spec.devices;
    }
    if (pass == 0) {
      t.sim_writes_per_pass =
          result.aggregate.user_writes.mean() *
          static_cast<double>(result.aggregate.user_writes.count());
      std::printf("fleet: %llu devices, lifetime p50 %.6f p99 %.6f, result "
                  "digest %016llx\n",
                  static_cast<unsigned long long>(result.aggregate.devices),
                  result.aggregate.lifetime.quantile(0.50),
                  result.aggregate.lifetime.quantile(0.99),
                  static_cast<unsigned long long>(digest));
    }
  }
  std::filesystem::remove(journal);
  add_end_to_end(out, t, setup_s);
  return out;
}

// ---------------------------------------------------------------------------
// Traced runs

struct TraceExtras {
  double cold_extra_s{0};
  double overhead_frac{0};
  double profiler_overhead_frac{0};
  double device_us_p50{0};
  double device_us_p99{0};
  double aggregate_s{0};
  double journal_bytes{0};
  double worker_busy_frac{0};
  double shard_imbalance{0};
};

void add_layer_metrics(Outcome& out, const LayerStats& s,
                       const TraceExtras& x) {
  const double draw_calls = static_cast<double>(
      s.attack_next.calls + s.attack_run.calls + s.attack_counts.calls);
  const double user_writes = s.user_writes;
  out.metrics = {
      {"attack.calls", draw_calls, "count"},
      {"attack.writes_per_call",
       ratio(static_cast<double>(s.attack_writes), draw_calls), "writes/call"},
      {"attack.draw_s",
       s.attack_next.est_seconds() + s.attack_run.est_seconds() +
           s.attack_counts.est_seconds(),
       "s"},
      {"attack.boot_s", s.attack_boot_s, "s"},
      {"wearlevel.on_write_calls", static_cast<double>(s.wl_on_write.calls),
       "count"},
      {"wearlevel.batched_frac",
       ratio(static_cast<double>(s.wl_batched_writes), user_writes), "frac"},
      {"wearlevel.remaps", static_cast<double>(s.wl_remaps), "count"},
      {"wearlevel.on_write_s", s.wl_on_write.est_seconds(), "s"},
      {"wearlevel.translate_s", s.wl_translate.est_seconds(), "s"},
      {"wearlevel.migration_writes",
       static_cast<double>(s.wl_migration_writes), "count"},
      {"wearlevel.boot_s", s.wl_boot_s, "s"},
      {"spare.resolve_calls", static_cast<double>(s.spare_resolve.calls),
       "count"},
      {"spare.resolves_per_write",
       ratio(static_cast<double>(s.spare_resolve.calls), user_writes),
       "resolves/write"},
      {"spare.resolve_s", s.spare_resolve.est_seconds(), "s"},
      {"spare.rescues", static_cast<double>(s.spare_rescue.calls), "count"},
      {"spare.rescue_s", s.spare_rescue.est_seconds(), "s"},
      {"spare.epoch_bumps", static_cast<double>(s.spare_epoch_bumps), "count"},
      {"spare.boot_s", s.spare_boot_s, "s"},
      {"nvm.map_boot_s", s.map_boot_s, "s"},
      {"nvm.device_writes", static_cast<double>(s.device_writes), "count"},
      {"nvm.wear_outs", static_cast<double>(s.wear_outs), "count"},
      {"engine.self_s", s.engine_self_s(), "s"},
      {"event.self_s", s.event_self_s(), "s"},
      {"event.line_deaths", static_cast<double>(s.event_line_deaths), "count"},
      {"event.cold_extra_s", x.cold_extra_s, "s"},
      {"fleet.device_us_p50", x.device_us_p50, "us"},
      {"fleet.device_us_p99", x.device_us_p99, "us"},
      {"fleet.aggregate_s", x.aggregate_s, "s"},
      {"fleet.journal_bytes", x.journal_bytes, "bytes"},
      {"fleet.worker_busy_frac", x.worker_busy_frac, "frac"},
      {"fleet.shard_imbalance", x.shard_imbalance, "ratio"},
      {"trace.overhead_frac", x.overhead_frac, "frac"},
      {"obs.profiler_overhead_frac", x.profiler_overhead_frac, "frac"},
  };
}

/// Compare a rerun's results with the reference pass; count mismatches.
std::uint64_t count_mismatches(const char* what,
                               const std::vector<LifetimeResult>& ref,
                               const std::vector<LifetimeResult>& got) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!same_result(ref[i], got[i])) {
      ++bad;
      std::printf("CHECK FAILED: %s device %zu differs from run_experiment\n",
                  what, i);
    }
  }
  return bad;
}

Outcome traced_experiments(const Workload& w, std::uint64_t seed,
                           bool small) {
  Outcome out;
  TraceExtras x;
  const std::vector<ExperimentConfig> configs =
      experiment_configs(w, seed, small);
  const std::size_t n = configs.size();

  // Untraced reference: run_experiment per device, as run_experiments'
  // jobs=1 path does, timed per device for the cold/warm comparison.
  std::vector<LifetimeResult> ref(n);
  std::vector<double> fresh_s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    ref[i] = run_experiment(configs[i]);
    fresh_s[i] = since(t0);
  }
  double untraced_s = 0;
  for (double s : fresh_s) untraced_s += s;
  out.attempted += n;
  out.failed += check_pass(w, seed, small, configs, ref);

  // Decorated pipeline: must reproduce run_experiment bit for bit.
  LayerStats stats;
  std::vector<LifetimeResult> traced(n);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    try {
      traced[i] = run_traced(configs[i], stats);
    } catch (const std::exception& e) {
      traced[i].failure_reason = e.what();  // counted as a mismatch below
    }
  }
  const double traced_s = since(t0);
  out.attempted += n;
  out.failed += count_mismatches("traced", ref, traced);
  x.overhead_frac = traced_s / untraced_s - 1.0;

  // The in-program profiler, attached the public way.
  Profiler profiler;
  ParallelOptions options;
  options.jobs = 1;
  options.profiler = &profiler;
  t0 = Clock::now();
  const std::vector<LifetimeResult> profiled = run_experiments(configs, options);
  x.profiler_overhead_frac = since(t0) / untraced_s - 1.0;
  out.attempted += n;
  out.failed += count_mismatches("profiled", ref, profiled);

  if (configs.front().mode == SimulationMode::kUniformEvent) {
    // Fresh run minus a warm workspace rerun of the same device: the
    // first-touch cost of the event engine's O(lines) scratch.
    ExperimentWorkspace workspace;
    std::vector<LifetimeResult> warm(n);
    for (std::size_t i = 0; i < n; ++i) {
      (void)run_experiment(configs[i], nullptr, &workspace);
      t0 = Clock::now();
      warm[i] = run_experiment(configs[i], nullptr, &workspace);
      x.cold_extra_s += fresh_s[i] - since(t0);
    }
    out.attempted += n;
    out.failed += count_mismatches("workspace", ref, warm);
  }
  std::printf("traced %.3f s, untraced %.3f s, profiled %+.1f%%\n", traced_s,
              untraced_s, 100.0 * x.profiler_overhead_frac);
  add_layer_metrics(out, stats, x);
  return out;
}

/// The last heartbeat line's value for `key` (0 when absent).
double heartbeat_field(const std::string& jsonl, const char* key) {
  const std::vector<minijson::JsonValue> lines = minijson::parse_jsonl(jsonl);
  if (lines.empty()) return 0.0;
  const minijson::JsonValue* v = lines.back().find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

Outcome traced_fleet(const Workload& w, std::uint64_t seed, bool small,
                     const std::string& scratch_dir) {
  Outcome out;
  TraceExtras x;
  const FleetSpec spec = fleet_spec(seed, small);
  const std::string journal = journal_path(scratch_dir);
  const auto fleet_run = [&](FleetOptions options, double* wall_s) {
    std::filesystem::remove(journal);
    options.jobs = kFleetJobs;
    options.checkpoint_path = journal;
    const auto t0 = Clock::now();
    const FleetResult result = run_fleet(spec, options);
    *wall_s = since(t0);
    out.attempted += spec.devices;
    return result;
  };

  double untraced_s = 0;
  const FleetResult base = fleet_run({}, &untraced_s);
  const std::uint64_t digest = fleet_digest(spec, base);
  if (const std::string why = check_fleet(w, seed, small, spec, base, digest);
      !why.empty()) {
    std::printf("CHECK FAILED: fleet: %s\n", why.c_str());
    out.failed += spec.devices;
  }
  x.journal_bytes = static_cast<double>(std::filesystem::file_size(journal));
  const auto same_digest = [&](const char* what, const FleetResult& r) {
    if (fleet_digest(spec, r) == digest) return;
    std::printf("CHECK FAILED: %s fleet result differs\n", what);
    out.failed += spec.devices;
  };

  std::ostringstream heartbeat_out;
  HeartbeatSink heartbeat(heartbeat_out);
  FleetOptions with_heartbeat;
  with_heartbeat.heartbeat = &heartbeat;
  double heartbeat_s = 0;
  same_digest("heartbeat", fleet_run(with_heartbeat, &heartbeat_s));
  x.worker_busy_frac = heartbeat_field(heartbeat_out.str(), "worker_busy_frac");
  x.shard_imbalance = heartbeat_field(heartbeat_out.str(), "shard_imbalance");

  Profiler profiler;
  FleetOptions with_profiler;
  with_profiler.profiler = &profiler;
  double profiled_s = 0;
  same_digest("profiled", fleet_run(with_profiler, &profiled_s));
  x.profiler_overhead_frac = profiled_s / untraced_s - 1.0;
  std::filesystem::remove(journal);

  // Replay every device through run_experiment with one warm workspace (the
  // fleet's per-worker setup reuse), folding results the way run_fleet
  // does: per-shard aggregates, compressed, merged in shard order.
  ExperimentWorkspace workspace;
  std::vector<double> device_us(spec.devices);
  std::vector<std::uint64_t> digests(spec.devices);
  FleetResult replay;
  FleetAggregate shard;
  double warm_s = 0;
  for (std::uint64_t d = 0; d < spec.devices; ++d) {
    const ExperimentConfig config = fleet_device_config(spec, d);
    auto t0 = Clock::now();
    const LifetimeResult r = run_experiment(config, nullptr, &workspace);
    const double dt = since(t0);
    warm_s += dt;
    device_us[d] = dt * 1e6;
    digests[d] = result_digest(r);
    t0 = Clock::now();
    shard.add(d, r, classify_failure_cause(std::string_view{}, r), false);
    if ((d + 1) % spec.shard_size == 0 || d + 1 == spec.devices) {
      shard.compress();
      replay.aggregate.merge(shard);
      shard = FleetAggregate();
      ++replay.shards_done;
    }
    x.aggregate_s += since(t0);
  }
  auto t0 = Clock::now();
  replay.aggregate.compress();
  x.aggregate_s += since(t0);
  replay.shards_total = replay.shards_done;
  out.attempted += spec.devices;
  same_digest("replayed", replay);
  x.device_us_p50 = quantile(device_us, 0.50);
  x.device_us_p99 = quantile(device_us, 0.99);

  // Fresh (workspace-free) replay, then the decorated pipeline; both must
  // match the warm replay device for device.
  const auto replay_fresh = [&](const char* what,
                                const std::function<LifetimeResult(
                                    const ExperimentConfig&)>& run) {
    std::uint64_t bad = 0;
    const auto start = Clock::now();
    for (std::uint64_t d = 0; d < spec.devices; ++d) {
      try {
        if (result_digest(run(fleet_device_config(spec, d))) != digests[d]) {
          ++bad;
        }
      } catch (const std::exception&) {
        ++bad;
      }
    }
    const double wall = since(start);
    out.attempted += spec.devices;
    out.failed += bad;
    if (bad > 0) {
      std::printf("CHECK FAILED: %s replay: %llu devices differ\n", what,
                  static_cast<unsigned long long>(bad));
    }
    return wall;
  };
  const double fresh_s = replay_fresh(
      "fresh", [](const ExperimentConfig& c) { return run_experiment(c); });
  LayerStats stats;
  const double traced_s =
      replay_fresh("traced", [&stats](const ExperimentConfig& c) {
        return run_traced(c, stats);
      });
  x.cold_extra_s = fresh_s - warm_s;
  x.overhead_frac = traced_s / fresh_s - 1.0;
  std::printf("fleet %.3f s (heartbeat %.3f, profiled %.3f); replays: warm "
              "%.3f s, fresh %.3f s, traced %.3f s\n",
              untraced_s, heartbeat_s, profiled_s, warm_s, fresh_s, traced_s);
  add_layer_metrics(out, stats, x);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"tbl_uaa_1gb", 42, false},
      {"fig8_bpa_maxwe", 7, false},
      {"zipf_counts_64k", 11, false},
      {"fleet_mix", 1, true},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<ExperimentConfig> experiment_configs(const Workload& w,
                                                 std::uint64_t seed,
                                                 bool small) {
  std::vector<ExperimentConfig> configs;
  if (w.name == "tbl_uaa_1gb") {
    // bench_tbl_uaa_lifetime: paper geometry, UAA, event engine.
    ExperimentConfig base;
    if (small) base.geometry = DeviceGeometry::scaled(16384, 128);
    base.seed = seed;
    for (const char* scheme : {"none", "maxwe", "pcd", "ps", "ps-worst"}) {
      configs.push_back(base);
      configs.back().spare_scheme = scheme;
    }
  } else if (w.name == "fig8_bpa_maxwe") {
    // bench_fig8_bpa_comparison's Max-WE column: two seeds per leveler.
    for (const std::string& wl : paper_wear_levelers()) {
      for (std::uint64_t k = 0; k < 2; ++k) {
        ExperimentConfig c = small ? scaled_stochastic_config(512, 32, 5e3)
                                   : scaled_stochastic_config(2048, 128, 5e4);
        c.attack = "bpa";
        c.wear_leveler = wl;
        c.spare_scheme = "maxwe";
        c.seed = seed + k;
        configs.push_back(c);
      }
    }
  } else if (w.name == "zipf_counts_64k") {
    // Benign zipf on the count-vector path, no leveler, three seeds.
    for (std::uint64_t k = 0; k < 3; ++k) {
      ExperimentConfig c = small ? scaled_stochastic_config(4096, 64, 3e4)
                                 : scaled_stochastic_config(65536, 1024, 3e5);
      c.attack = "zipf";
      c.spare_scheme = "maxwe";
      c.seed = seed + k;
      configs.push_back(c);
    }
  } else {
    throw std::invalid_argument("perfbench: '" + w.name +
                                "' is not a run_experiments workload");
  }
  return configs;
}

FleetSpec fleet_spec(std::uint64_t seed, bool small) {
  FleetSpec spec;
  spec.devices = small ? 600 : 200000;
  spec.seed_start = seed;
  spec.shard_size = 256;
  spec.base.geometry = DeviceGeometry::scaled(256, 16);
  spec.base.endurance.endurance_at_mean = 200;
  spec.base.spare_scheme = "maxwe";
  spec.base.mode = SimulationMode::kUniformEvent;
  spec.attack_mix = {{"uaa", 1.0}, {"zipf", 1.0}, {"hotspot", 1.0}};
  return spec;
}

ExperimentConfig fleet_device_config(const FleetSpec& spec,
                                     std::uint64_t index) {
  ExperimentConfig config = spec.base;
  config.seed = spec.seed_start + index;
  config.attack = fleet_device_attack(spec, index);
  return config;
}

Outcome run_timed(const Workload& w, std::uint64_t seed, double seconds,
                  const std::string& scratch_dir, bool small) {
  Outcome out = w.fleet ? timed_fleet(w, seed, seconds, small, scratch_dir)
                        : timed_experiments(w, seed, seconds, small);
  if (out.failed > 0) out.correct = false;
  return out;
}

Outcome run_traced_workload(const Workload& w, std::uint64_t seed,
                            const std::string& scratch_dir, bool small) {
  Outcome out = w.fleet ? traced_fleet(w, seed, small, scratch_dir)
                        : traced_experiments(w, seed, small);
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
