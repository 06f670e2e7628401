// Microbenchmarks (google-benchmark) for the hot paths a memory controller
// would execute per access: Max-WE's read-path translation (§4.2's
// LMT -> RMT -> raw cascade), wear-leveler translation, and a full
// simulated write through the engine pipeline; plus the per-device cost
// of a fleet's event runs and the end-of-run wear Gini.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/maxwe.h"
#include "nvm/device.h"
#include "reduction/codec.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "util/alias_table.h"
#include "util/multinomial.h"
#include "util/stats.h"
#include "wearlevel/wear_leveler.h"

namespace {

using namespace nvmsec;

std::shared_ptr<const EnduranceMap> bench_map() {
  static const auto map = [] {
    Rng rng(42);
    const EnduranceModel model;
    return std::make_shared<EnduranceMap>(EnduranceMap::from_model(
        DeviceGeometry::scaled(1 << 18, 512), model, rng));
  }();
  return map;
}

std::unique_ptr<MaxWe> worn_maxwe(double worn_fraction) {
  auto m = std::make_unique<MaxWe>(bench_map(), MaxWeParams{});
  Rng rng(7);
  const auto target = static_cast<std::uint64_t>(
      worn_fraction * static_cast<double>(m->working_lines()));
  for (std::uint64_t k = 0; k < target; ++k) {
    m->on_wear_out(rng.uniform_u64(m->working_lines()));
  }
  return m;
}

void BM_MaxWeTranslateRead(benchmark::State& state) {
  const auto m = worn_maxwe(static_cast<double>(state.range(0)) / 100.0);
  Rng rng(1);
  const std::uint64_t n = bench_map()->geometry().num_lines();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m->translate_read(PhysLineAddr{rng.uniform_u64(n)}));
  }
}
BENCHMARK(BM_MaxWeTranslateRead)->Arg(0)->Arg(5)->Arg(20);

void BM_WearLevelerTranslate(benchmark::State& state) {
  static const char* kNames[] = {"none", "startgap", "tlsr", "pcms", "bwl",
                                 "wawl"};
  const std::string name = kNames[state.range(0)];
  Rng rng(3);
  constexpr std::uint64_t kLines = 1 << 16;
  EnduranceView view(kLines);
  for (std::uint64_t i = 0; i < kLines; ++i) {
    view[i] = 1000.0 + static_cast<double>(i % 512);
  }
  WearLevelerParams params;
  params.group_lines = 512;
  auto wl = make_wear_leveler(name, kLines, view, params, rng);
  state.SetLabel(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wl->translate(LogicalLineAddr{rng.uniform_u64(wl->logical_lines())}));
  }
}
BENCHMARK(BM_WearLevelerTranslate)->DenseRange(0, 5);

void BM_EnginePipelineWrite(benchmark::State& state) {
  // Whole write path: attack -> wear leveler -> spare resolve -> device.
  Rng rng(4);
  auto map = bench_map();
  Device device(map);
  auto attack = make_bpa(256);
  auto spare = make_maxwe(map, MaxWeParams{});
  EnduranceView view(spare->working_lines());
  for (std::uint64_t i = 0; i < view.size(); ++i) {
    view[i] = map->line_endurance(spare->working_line(i));
  }
  WearLevelerParams params;
  params.group_lines = 512;
  auto wl = make_wear_leveler("wawl", spare->working_lines(), view, params,
                              rng);
  std::vector<WlPhysWrite> batch;
  for (auto _ : state) {
    const LogicalLineAddr la = attack->next(rng, wl->logical_lines());
    batch.clear();
    wl->on_write(la, rng, batch);
    for (const WlPhysWrite& w : batch) {
      benchmark::DoNotOptimize(spare->resolve(w.working_index));
    }
  }
}
BENCHMARK(BM_EnginePipelineWrite);

void BM_DeviceWriteMany(benchmark::State& state) {
  // Bulk budget decrement vs. the equivalent loop of single writes. The
  // device is reset whenever the target line runs low so the batch never
  // hits the wear-out path (that cost is measured by the engine bench).
  auto map = bench_map();
  Device device(map);
  const PhysLineAddr line{0};
  const auto batch = static_cast<WriteCount>(state.range(0));
  for (auto _ : state) {
    if (device.remaining(line) <= batch) {
      state.PauseTiming();
      device.reset();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(device.write_many(line, batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_DeviceWriteMany)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_DeviceWriteLoop(benchmark::State& state) {
  // Baseline for BM_DeviceWriteMany: the same writes issued one by one
  // through the validated entry point.
  auto map = bench_map();
  Device device(map);
  const PhysLineAddr line{0};
  const auto batch = static_cast<WriteCount>(state.range(0));
  for (auto _ : state) {
    if (device.remaining(line) <= batch) {
      state.PauseTiming();
      device.reset();
      state.ResumeTiming();
    }
    for (WriteCount i = 0; i < batch; ++i) {
      benchmark::DoNotOptimize(device.write(line));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_DeviceWriteLoop)->Arg(8)->Arg(64)->Arg(512);

void BM_MultinomialDraw(benchmark::State& state) {
  // One batched multinomial chunk draw (recursive binomial splits) over a
  // zipf-shaped weight vector. Items = writes sampled, so items/sec is
  // directly comparable to BM_AliasTableSample (one write per call).
  const auto outcomes = static_cast<std::size_t>(state.range(0));
  const auto chunk = static_cast<std::uint64_t>(state.range(1));
  std::vector<double> weights(outcomes);
  for (std::size_t i = 0; i < outcomes; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
  }
  const MultinomialSampler sampler{std::span<const double>(weights)};
  Rng rng(6);
  WriteCountVector out;
  for (auto _ : state) {
    out.clear();
    sampler.draw(rng, chunk, out);
    benchmark::DoNotOptimize(out.addrs.data());
    benchmark::DoNotOptimize(out.counts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunk));
}
BENCHMARK(BM_MultinomialDraw)
    ->Args({512, 2048})
    ->Args({4096, 2048})
    ->Args({4096, 1 << 16})
    ->Unit(benchmark::kMicrosecond);

void BM_EngineBatchedWrite(benchmark::State& state) {
  // Full Engine::run through the batched fast path vs. the per-write path
  // (first Arg: 1 = fastpath, 0 = per-write) under Max-WE. Second Arg: a
  // UAA sweep under Start-Gap, which batches on the address-oblivious
  // horizon, or BPA bursts under TLSR or WAWL, which batch on the
  // per-address one. Each iteration runs a capped fresh engine; items =
  // user writes simulated. The cap is large enough that the writes, not
  // the ~8 ms per run that does not grow with it, dominate an iteration.
  struct Workload {
    const char* attack;
    const char* wear_leveler;
  };
  static constexpr Workload kWorkloads[] = {
      {"uaa", "startgap"}, {"bpa", "tlsr"}, {"bpa", "wawl"}};
  const bool fastpath = state.range(0) != 0;
  const Workload& workload = kWorkloads[state.range(1)];
  constexpr WriteCount kCap = 2'000'000;
  auto map = bench_map();
  auto attack = make_attack(workload.attack);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(11);
    Device device(map);
    auto spare = make_maxwe(map, MaxWeParams{});
    EnduranceView view(spare->working_lines());
    for (std::uint64_t i = 0; i < view.size(); ++i) {
      view[i] = map->line_endurance(spare->working_line(i));
    }
    WearLevelerParams params;
    auto wl = make_wear_leveler(workload.wear_leveler, spare->working_lines(),
                                view, params, rng);
    attack->reset();
    Engine engine(device, *attack, *wl, *spare, rng);
    engine.set_fast_path(fastpath);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run(kCap));
  }
  state.SetLabel(std::string(workload.attack) + "/" + workload.wear_leveler +
                 (fastpath ? " fastpath" : " per-write"));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCap));
}
BENCHMARK(BM_EngineBatchedWrite)
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

void BM_EventRunFleetDevice(benchmark::State& state) {
  // One fleet-sized device per iteration (256 lines, 16 regions, endurance
  // 200, Max-WE, event engine) through one warm workspace, the way
  // run_fleet drives its devices: map rebuild, Max-WE rebind, the event
  // run and its wear Gini. Seeds cycle so each iteration is a new map.
  // Arg: 0 = uaa, 1 = zipf, 2 = hotspot. Items = devices.
  static const char* kAttacks[] = {"uaa", "zipf", "hotspot"};
  ExperimentConfig config;
  config.geometry = DeviceGeometry::scaled(256, 16);
  config.endurance.endurance_at_mean = 200;
  config.spare_scheme = "maxwe";
  config.mode = SimulationMode::kUniformEvent;
  config.attack = kAttacks[state.range(0)];
  ExperimentWorkspace workspace;
  std::uint64_t device = 0;
  for (auto _ : state) {
    config.seed = 1 + device++ % 4096;
    benchmark::DoNotOptimize(run_experiment(config, nullptr, &workspace));
  }
  state.SetLabel(config.attack);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventRunFleetDevice)->DenseRange(0, 2);

void BM_GiniInPlace(benchmark::State& state) {
  // gini_in_place over one fleet device's worth of utilizations (256),
  // copied in before every call (the copy is timed too) from one of 64
  // seeded samples in turn, so the branch predictor cannot learn a single
  // input. Arg: 0 = all distinct, 1 = 16 runs of 16 equal values, 2 =
  // mostly zeros (every 16th value nonzero).
  static const char* kShapes[] = {"distinct", "16 runs", "mostly zero"};
  constexpr std::size_t kValues = 256;
  constexpr std::size_t kSamples = 64;
  Rng rng(8);
  std::vector<double> samples(kSamples * kValues, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (state.range(0) == 0) {
      samples[i] = rng.uniform_double();
    } else if (state.range(0) == 1) {
      samples[i] = i % 16 == 0 ? rng.uniform_double() : samples[i - 1];
    } else if (i % 16 == 0) {
      samples[i] = rng.uniform_double();
    }
  }
  std::vector<double> xs(kValues);
  std::size_t sample = 0;
  for (auto _ : state) {
    const auto first = samples.begin() +
                       static_cast<std::ptrdiff_t>(sample++ % kSamples *
                                                   kValues);
    std::copy(first, first + kValues, xs.begin());
    benchmark::DoNotOptimize(gini_in_place(xs));
  }
  state.SetLabel(kShapes[state.range(0)]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GiniInPlace)->DenseRange(0, 2);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u64(1000003));
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

void BM_AliasTableSample(benchmark::State& state) {
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 97);
  }
  AliasTable table(weights);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(128)->Arg(2048)->Arg(1 << 16);

void BM_EnduranceMapConstruction(benchmark::State& state) {
  const EnduranceModel model;
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(EnduranceMap::from_model(
        DeviceGeometry::scaled(1 << 14, static_cast<std::uint64_t>(
                                            state.range(0))),
        model, rng));
  }
}
BENCHMARK(BM_EnduranceMapConstruction)->Arg(128)->Arg(2048);

void BM_FnwCodecProgram(benchmark::State& state) {
  auto codec = make_codec("fnw");
  StoredLine stored;
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->program(stored, LineData::random(rng)));
  }
}
BENCHMARK(BM_FnwCodecProgram);

}  // namespace

BENCHMARK_MAIN();
