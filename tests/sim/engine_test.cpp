#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/attack.h"
#include "core/maxwe.h"
#include "obs/profiler.h"
#include "sim/experiment.h"
#include "spare/spare_scheme.h"
#include "wearlevel/none.h"

namespace nvmsec {
namespace {

std::shared_ptr<const EnduranceMap> uniform_map(std::uint64_t lines,
                                                std::uint64_t regions,
                                                Endurance e) {
  return std::make_shared<EnduranceMap>(
      DeviceGeometry::scaled(lines, regions),
      std::vector<Endurance>(regions, e));
}

TEST(EngineTest, MismatchedWorkingSizesRejected) {
  auto map = uniform_map(64, 8, 10);
  Device device(map);
  auto attack = make_uaa();
  NoWearLeveling wl(32);  // wrong size on purpose
  auto spare = make_no_spare(map);
  Rng rng(1);
  EXPECT_THROW(Engine(device, *attack, wl, *spare, rng),
               std::invalid_argument);
}

TEST(EngineTest, UnprotectedUniformDeviceDiesAtExactEndurance) {
  // Every line has endurance 10; UAA writes each line once per round, so
  // the first wear-out happens on user write 10*64 (the last write of round
  // 10) — and with no spares that is the device's lifetime.
  auto map = uniform_map(64, 8, 10);
  Device device(map);
  auto attack = make_uaa();
  NoWearLeveling wl(64);
  auto spare = make_no_spare(map);
  Rng rng(1);
  Engine engine(device, *attack, wl, *spare, rng);
  const LifetimeResult r = engine.run();
  EXPECT_TRUE(r.failed);
  // The sweep wears line 0 out first, at its 10th write = user write 9*64+1.
  EXPECT_DOUBLE_EQ(r.user_writes, 9 * 64 + 1);
  EXPECT_EQ(r.line_deaths, 1u);
  EXPECT_DOUBLE_EQ(r.ideal_lifetime, 640.0);
}

TEST(EngineTest, WriteCapStopsWithoutFailure) {
  auto map = uniform_map(64, 8, 1000);
  Device device(map);
  auto attack = make_uaa();
  NoWearLeveling wl(64);
  auto spare = make_no_spare(map);
  Rng rng(1);
  Engine engine(device, *attack, wl, *spare, rng);
  const LifetimeResult r = engine.run(/*max_user_writes=*/500);
  EXPECT_FALSE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 500);
  EXPECT_EQ(r.failure_reason, "write cap reached");
  EXPECT_EQ(r.device_writes, 500u);
}

TEST(EngineTest, NormalizedLifetimeIsUserWritesOverIdeal) {
  auto map = uniform_map(64, 8, 10);
  Device device(map);
  auto attack = make_uaa();
  NoWearLeveling wl(64);
  auto spare = make_no_spare(map);
  Rng rng(1);
  Engine engine(device, *attack, wl, *spare, rng);
  const LifetimeResult r = engine.run();
  EXPECT_DOUBLE_EQ(r.normalized, r.user_writes / r.ideal_lifetime);
}

TEST(EngineTest, SpareSchemeExtendsLifetime) {
  // Endurance varies across regions, so sparing out the early deaths buys
  // real lifetime (with uniform endurance all lines die together and spares
  // cannot help).
  std::vector<Endurance> es{10, 20, 30, 40, 50, 60, 70, 80};
  auto map = std::make_shared<EnduranceMap>(DeviceGeometry::scaled(64, 8), es);
  auto run_with = [&](std::unique_ptr<SpareScheme> spare) {
    Device device(map);
    auto attack = make_uaa();
    NoWearLeveling wl(static_cast<std::uint64_t>(spare->working_lines()));
    Rng rng(1);
    Engine engine(device, *attack, wl, *spare, rng);
    return engine.run();
  };
  Rng pool_rng(2);
  const auto unprotected = run_with(make_no_spare(map));
  const auto with_ps = run_with(make_ps(map, 8, pool_rng));
  EXPECT_TRUE(with_ps.failed);
  EXPECT_GT(with_ps.normalized, unprotected.normalized);
}

TEST(EngineTest, HotspotOnUnprotectedDeviceDiesFast) {
  auto map = uniform_map(64, 8, 50);
  Device device(map);
  auto attack = make_hotspot(1);
  NoWearLeveling wl(64);
  auto spare = make_no_spare(map);
  Rng rng(1);
  Engine engine(device, *attack, wl, *spare, rng);
  const LifetimeResult r = engine.run();
  EXPECT_TRUE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 50);  // exactly one line's endurance
}

TEST(EngineTest, OverheadWritesWearTheDevice) {
  // With wear leveling, migration writes consume endurance: the device
  // absorbs more physical writes than the attacker issues.
  auto map = uniform_map(64, 8, 100);
  Device device(map);
  auto attack = make_uaa();
  EnduranceView view(64, 100.0);
  WearLevelerParams params;
  params.swap_interval = 5;
  Rng rng(3);
  auto wl = make_wear_leveler("pcms", 64, view, params, rng);
  auto spare = make_no_spare(map);
  Engine engine(device, *attack, *wl, *spare, rng);
  const LifetimeResult r = engine.run();
  EXPECT_GT(r.overhead_writes, 0u);
  EXPECT_EQ(r.device_writes,
            static_cast<WriteCount>(r.user_writes) + r.overhead_writes);
}

TEST(EngineTest, FrontBufferRequiresWriteCap) {
  auto map = uniform_map(64, 8, 10);
  Device device(map);
  auto attack = make_hotspot(1);
  NoWearLeveling wl(64);
  auto spare = make_no_spare(map);
  Rng rng(1);
  Engine engine(device, *attack, wl, *spare, rng);
  DramBuffer buffer(4);
  engine.set_front_buffer(&buffer);
  EXPECT_THROW(engine.run(0), std::invalid_argument);
}

TEST(EngineTest, FrontBufferAbsorbsHotspotEntirely) {
  auto map = uniform_map(64, 8, 10);
  Device device(map);
  auto attack = make_hotspot(2);  // working set of 2 fits a 4-line buffer
  NoWearLeveling wl(64);
  auto spare = make_no_spare(map);
  Rng rng(1);
  Engine engine(device, *attack, wl, *spare, rng);
  DramBuffer buffer(4);
  engine.set_front_buffer(&buffer);
  const LifetimeResult r = engine.run(10000);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.absorbed_writes, 10000u);  // nothing ever reached the NVM
  EXPECT_EQ(r.device_writes, 0u);
}

TEST(EngineTest, FrontBufferUselessAgainstUaa) {
  // §3.3.2: uniform sweeps never hit the buffer, so the device wears as if
  // the buffer were absent (modulo the tiny resident set).
  auto map = uniform_map(64, 8, 1000);
  Device device(map);
  auto attack = make_uaa();
  NoWearLeveling wl(64);
  auto spare = make_no_spare(map);
  Rng rng(1);
  Engine engine(device, *attack, wl, *spare, rng);
  DramBuffer buffer(8);
  engine.set_front_buffer(&buffer);
  const LifetimeResult r = engine.run(5000);
  EXPECT_EQ(r.absorbed_writes, 8u);  // only the cold fill
  EXPECT_EQ(r.device_writes, 5000u - 8u);
}

TEST(EngineTest, MaxWeSurvivesLongerThanNoSpareUnderUaa) {
  std::vector<Endurance> es;
  for (int r = 0; r < 16; ++r) es.push_back(20.0 * (r + 1));
  auto map = std::make_shared<EnduranceMap>(DeviceGeometry::scaled(128, 16),
                                            es);
  auto run_with = [&](std::unique_ptr<SpareScheme> spare) {
    Device device(map);
    auto attack = make_uaa();
    NoWearLeveling wl(spare->working_lines());
    Rng rng(4);
    Engine engine(device, *attack, wl, *spare, rng);
    return engine.run();
  };
  MaxWeParams params;
  params.spare_fraction = 0.25;
  params.swr_fraction = 0.75;
  const auto unprotected = run_with(make_no_spare(map));
  const auto protected_run = run_with(make_maxwe(map, params));
  EXPECT_GT(protected_run.normalized, 2 * unprotected.normalized);
}

/// Forwards to a real scheme, counts resolve() calls, and answers
/// resolve_cacheable() as told.
class CountingSpare final : public SpareScheme {
 public:
  CountingSpare(std::unique_ptr<SpareScheme> inner, bool cacheable)
      : inner_(std::move(inner)), cacheable_(cacheable) {}
  [[nodiscard]] std::uint64_t working_lines() const override {
    return inner_->working_lines();
  }
  [[nodiscard]] PhysLineAddr working_line(std::uint64_t idx) const override {
    return inner_->working_line(idx);
  }
  PhysLineAddr resolve(std::uint64_t idx) override {
    ++resolves;
    return inner_->resolve(idx);
  }
  bool on_wear_out(std::uint64_t idx) override {
    return inner_->on_wear_out(idx);
  }
  [[nodiscard]] bool resolve_cacheable() const override { return cacheable_; }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] SpareSchemeStats stats() const override {
    return inner_->stats();
  }
  void reset() override { inner_->reset(); }

  std::uint64_t resolves{0};

 private:
  std::unique_ptr<SpareScheme> inner_;
  bool cacheable_;
};

TEST(EngineTest, ResolveCountFollowsResolveCacheable) {
  // A scheme that declines resolve_cacheable() is resolved exactly once per
  // device write on every fast-path source (BPA's stride-0 spans included,
  // wear-outs and rescues included); one that opts in is resolved once per
  // entry plus once per rescue. The trajectory is the same either way.
  std::vector<Endurance> es;
  for (int r = 0; r < 16; ++r) es.push_back(20.0 * (r + 1));
  auto map = std::make_shared<EnduranceMap>(DeviceGeometry::scaled(256, 16),
                                            es);
  MaxWeParams params;
  params.spare_fraction = 0.25;
  params.swr_fraction = 0.5;
  for (const std::string attack_name : {"bpa", "uaa"}) {
    auto run_with = [&](bool cacheable, std::uint64_t& resolves) {
      Device device(map);
      auto attack = make_attack(attack_name);
      CountingSpare spare(make_maxwe(map, params), cacheable);
      NoWearLeveling wl(spare.working_lines());
      Rng rng(5);
      Engine engine(device, *attack, wl, spare, rng);
      const LifetimeResult r = engine.run();
      resolves = spare.resolves;
      return r;
    };
    std::uint64_t per_write = 0;
    std::uint64_t shared = 0;
    const LifetimeResult a = run_with(/*cacheable=*/false, per_write);
    const LifetimeResult b = run_with(/*cacheable=*/true, shared);
    ASSERT_TRUE(a.failed) << attack_name;
    EXPECT_GT(a.line_deaths, 0u) << attack_name;
    EXPECT_EQ(per_write, a.device_writes) << attack_name;
    EXPECT_EQ(a.user_writes, b.user_writes) << attack_name;
    EXPECT_EQ(a.device_writes, b.device_writes) << attack_name;
    EXPECT_EQ(a.line_deaths, b.line_deaths) << attack_name;
    EXPECT_EQ(a.failure_reason, b.failure_reason) << attack_name;
    if (attack_name == "bpa") {
      EXPECT_LT(shared, per_write / 100) << "a burst shares its resolves";
    } else {
      EXPECT_EQ(shared, per_write) << "a sweep writes each entry once";
    }
  }
}

TEST(EngineTest, BpaBurstsBatchUnderPerAddressHorizons) {
  // TLSR and WAWL count their cadence per sub-region and per line, so
  // their address-oblivious horizon is 0. A BPA burst hammers one address,
  // and their horizon for that address lets nearly all of it skip on_write.
  for (const std::string wl : {"tlsr", "wawl"}) {
    ExperimentConfig config = scaled_stochastic_config(512, 32, 5e3);
    config.attack = "bpa";
    config.wear_leveler = wl;
    config.spare_scheme = "maxwe";
    Profiler prof;
    config.observer.profiler = &prof;
    const LifetimeResult r = run_experiment(config);
    ASSERT_TRUE(r.failed) << wl;
    const auto batched =
        static_cast<double>(prof.counter(ProfCounter::kBatchWrites));
    EXPECT_GE(batched, 0.9 * r.user_writes) << wl;
  }
}

}  // namespace
}  // namespace nvmsec
