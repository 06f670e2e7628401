#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/maxwe.h"
#include "nvm/endurance_map.h"
#include "sim/event_sim.h"
#include "sim/parallel.h"
#include "spare/freep.h"
#include "spare/spare_scheme.h"

namespace nvmsec {
namespace {

ExperimentConfig small_event_config() {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(2048, 128);
  c.endurance.endurance_at_mean = 1000.0;
  c.mode = SimulationMode::kUniformEvent;
  return c;
}

TEST(ExperimentConfigTest, SpareLinesAreRegionAligned) {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(2048, 128);  // 16 lines/region
  c.spare_fraction = 0.10;                         // 13 regions
  EXPECT_EQ(c.spare_lines(), 13u * 16u);
  c.spare_fraction = 0.0;
  EXPECT_EQ(c.spare_lines(), 0u);
}

TEST(ExperimentTest, EventModeRejectsNonUniformAttack) {
  ExperimentConfig c = small_event_config();
  c.attack = "bpa";
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(ExperimentTest, EventModeRejectsWearLeveler) {
  ExperimentConfig c = small_event_config();
  c.wear_leveler = "tlsr";
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(ExperimentTest, UnknownSpareSchemeRejected) {
  ExperimentConfig c = small_event_config();
  c.spare_scheme = "bogus";
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(ExperimentTest, ZeroSpareBudgetRejectedForPooledSchemes) {
  ExperimentConfig c = small_event_config();
  c.spare_scheme = "ps";
  c.spare_fraction = 0.001;  // rounds to zero regions
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(ExperimentTest, SameSeedIsReproducible) {
  ExperimentConfig c = small_event_config();
  c.spare_scheme = "maxwe";
  const LifetimeResult a = run_experiment(c);
  const LifetimeResult b = run_experiment(c);
  EXPECT_DOUBLE_EQ(a.normalized, b.normalized);
  EXPECT_EQ(a.line_deaths, b.line_deaths);
}

TEST(ExperimentTest, DifferentSeedsVary) {
  ExperimentConfig c = small_event_config();
  c.spare_scheme = "none";
  c.seed = 1;
  const double a = run_experiment(c).normalized;
  c.seed = 2;
  const double b = run_experiment(c).normalized;
  EXPECT_NE(a, b);
}

TEST(ExperimentTest, SchemeOrderingUnderUaa) {
  // The paper's §5.3.1 ordering: Max-WE > PCD/PS > PS-worst > unprotected.
  ExperimentConfig c = small_event_config();
  auto lifetime = [&](const std::string& scheme) {
    c.spare_scheme = scheme;
    double acc = 0;
    for (std::uint64_t seed : {1, 2, 3}) {
      c.seed = seed;
      acc += run_experiment(c).normalized;
    }
    return acc / 3;
  };
  const double none = lifetime("none");
  const double maxwe = lifetime("maxwe");
  const double pcd = lifetime("pcd");
  const double ps_worst = lifetime("ps-worst");
  EXPECT_GT(maxwe, pcd);
  EXPECT_GT(pcd, ps_worst);
  EXPECT_GT(ps_worst, none);
}

TEST(ExperimentTest, StochasticModeRunsAllWearLevelers) {
  ExperimentConfig c = scaled_stochastic_config(512, 32, 300.0);
  c.attack = "bpa";
  c.spare_scheme = "ps";
  for (const std::string wl : {"none", "startgap", "tlsr", "pcms", "bwl",
                               "wawl"}) {
    c.wear_leveler = wl;
    const LifetimeResult r = run_experiment(c);
    EXPECT_TRUE(r.failed) << wl;
    EXPECT_GT(r.normalized, 0.0) << wl;
    EXPECT_LT(r.normalized, 1.0) << wl;
  }
}

TEST(ExperimentTest, LineJitterLowersUnprotectedLifetime) {
  ExperimentConfig c = small_event_config();
  c.spare_scheme = "none";
  const double plain = run_experiment(c).normalized;
  c.line_jitter_sigma = 0.3;
  const double jittered = run_experiment(c).normalized;
  EXPECT_LT(jittered, plain);
}

TEST(ExperimentTest, MaxUserWritesCapsStochasticRuns) {
  ExperimentConfig c = scaled_stochastic_config(512, 32, 1e7);
  c.spare_scheme = "none";
  c.max_user_writes = 10000;
  const LifetimeResult r = run_experiment(c);
  EXPECT_FALSE(r.failed);
  EXPECT_DOUBLE_EQ(r.user_writes, 10000.0);
}

TEST(ExperimentTest, BitLevelModeRunsEndToEnd) {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(256, 16);
  c.endurance.endurance_at_mean = 400.0;
  c.mode = SimulationMode::kBitLevel;
  c.payload = "random";
  c.codec = "fnw";
  c.ecp_entries = 2;
  c.spare_scheme = "maxwe";
  c.spare_fraction = 0.25;
  c.swr_fraction = 0.5;
  const LifetimeResult r = run_experiment(c);
  EXPECT_TRUE(r.failed);
  EXPECT_GT(r.normalized, 0.0);
}

TEST(ExperimentTest, BitLevelModeRejectsDramBuffer) {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(256, 16);
  c.endurance.endurance_at_mean = 400.0;
  c.mode = SimulationMode::kBitLevel;
  c.dram_buffer_lines = 8;
  c.max_user_writes = 100;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(ExperimentTest, BitLevelCodecChangesLifetime) {
  auto lifetime = [](const std::string& codec) {
    ExperimentConfig c;
    c.geometry = DeviceGeometry::scaled(256, 16);
    c.endurance.endurance_at_mean = 400.0;
    c.mode = SimulationMode::kBitLevel;
    c.codec = codec;
    c.seed = 5;
    return run_experiment(c).normalized;
  };
  EXPECT_GT(lifetime("differential"), 1.5 * lifetime("full"));
}

TEST(ExperimentTest, FreepSchemeRunsInBothClassicModes) {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(2048, 128);
  c.endurance.endurance_at_mean = 1000.0;
  c.spare_scheme = "freep";
  const LifetimeResult event = run_experiment(c);
  EXPECT_TRUE(event.failed);
  c.mode = SimulationMode::kStochastic;
  const LifetimeResult stochastic = run_experiment(c);
  EXPECT_TRUE(stochastic.failed);
  EXPECT_NEAR(event.user_writes, stochastic.user_writes, 2048.0);
}

TEST(ExperimentTest, ScaledConfigHasTightenedCadences) {
  const ExperimentConfig c = scaled_stochastic_config(1024, 64, 1e4);
  EXPECT_EQ(c.mode, SimulationMode::kStochastic);
  EXPECT_LT(c.wl.swap_interval, WearLevelerParams{}.swap_interval);
  EXPECT_LT(c.wl.tlsr_subregion_lines,
            WearLevelerParams{}.tlsr_subregion_lines);
}


TEST(ExperimentTest, EventModeRunsStationaryAttacks) {
  // The event engine bulk-advances every stationary-rate attack, not just
  // UAA: hotspot, random, and zipf all complete without the per-write loop.
  for (const std::string attack : {"uaa", "hotspot", "random", "zipf"}) {
    ExperimentConfig c = small_event_config();
    c.attack = attack;
    c.hotspot_working_set = 4;
    const LifetimeResult r = run_experiment(c);
    EXPECT_TRUE(r.failed) << attack;
    EXPECT_GT(r.user_writes, 0.0) << attack;
  }
}

TEST(ExperimentTest, EventModeZipfTracksStochastic) {
  // Mean-field check: the event engine's analytic zipf rates land within a
  // sampling-noise band of the stochastic per-write engine.
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(512, 32);
  c.endurance.endurance_at_mean = 500.0;
  c.attack = "zipf";
  c.zipf_skew = 0.99;
  c.seed = 7;

  ExperimentConfig event_c = c;
  event_c.mode = SimulationMode::kUniformEvent;
  const LifetimeResult event_r = run_experiment(event_c);

  ExperimentConfig stoch_c = c;
  stoch_c.mode = SimulationMode::kStochastic;
  const LifetimeResult stoch_r = run_experiment(stoch_c);

  ASSERT_GT(stoch_r.user_writes, 0.0);
  EXPECT_NEAR(event_r.user_writes / stoch_r.user_writes, 1.0, 0.20);
}

TEST(ExperimentTest, EventModeHotspotTracksStochastic) {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(512, 32);
  c.endurance.endurance_at_mean = 500.0;
  c.attack = "hotspot";
  c.hotspot_working_set = 8;
  c.seed = 9;

  ExperimentConfig event_c = c;
  event_c.mode = SimulationMode::kUniformEvent;
  const LifetimeResult event_r = run_experiment(event_c);

  ExperimentConfig stoch_c = c;
  stoch_c.mode = SimulationMode::kStochastic;
  const LifetimeResult stoch_r = run_experiment(stoch_c);

  ASSERT_GT(stoch_r.user_writes, 0.0);
  // The hotspot rotation is deterministic in both engines; only the
  // continuous-time rounding separates them.
  EXPECT_NEAR(event_r.user_writes / stoch_r.user_writes, 1.0, 0.10);
}

TEST(ExperimentTest, FingerprintCoversHotspotWorkingSet) {
  ExperimentConfig a = small_event_config();
  a.attack = "hotspot";
  ExperimentConfig b = a;
  b.hotspot_working_set = 16;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
}

void expect_identical(const LifetimeResult& fresh, const LifetimeResult& ws) {
  EXPECT_EQ(fresh.user_writes, ws.user_writes);
  EXPECT_EQ(fresh.overhead_writes, ws.overhead_writes);
  EXPECT_EQ(fresh.device_writes, ws.device_writes);
  EXPECT_EQ(fresh.ideal_lifetime, ws.ideal_lifetime);
  EXPECT_EQ(fresh.normalized, ws.normalized);
  EXPECT_EQ(fresh.line_deaths, ws.line_deaths);
  EXPECT_EQ(fresh.failed, ws.failed);
  EXPECT_EQ(fresh.failure_reason, ws.failure_reason);
  EXPECT_EQ(fresh.wear_gini, ws.wear_gini);
}

TEST(ExperimentWorkspaceTest, EventModeReuseIsBitIdentical) {
  // The fleet hot path: one workspace, many devices of the same shape.
  // Every reused run must match a fresh construction bit for bit.
  ExperimentWorkspace ws;
  for (const char* scheme : {"maxwe", "pcd", "none"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ExperimentConfig c = small_event_config();
      c.spare_scheme = scheme;
      c.seed = seed;
      const LifetimeResult fresh = run_experiment(c);
      const LifetimeResult reused = run_experiment(c, &ws);
      expect_identical(fresh, reused);
    }
  }
}

TEST(ExperimentWorkspaceTest, StochasticModeReuseIsBitIdentical) {
  ExperimentWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExperimentConfig c = scaled_stochastic_config(512, 32, 300.0);
    c.attack = "bpa";
    c.wear_leveler = "tlsr";
    c.spare_scheme = "maxwe";
    c.seed = seed;
    const LifetimeResult fresh = run_experiment(c);
    const LifetimeResult reused = run_experiment(c, &ws);
    expect_identical(fresh, reused);
  }
}

TEST(ExperimentWorkspaceTest, ShapeChangesRebuildCleanly) {
  // Alternating geometries, schemes, and modes through one workspace:
  // whatever cannot be recycled must be rebuilt, never mixed up.
  ExperimentWorkspace ws;
  ExperimentConfig big = small_event_config();
  big.spare_scheme = "maxwe";
  ExperimentConfig small = small_event_config();
  small.geometry = DeviceGeometry::scaled(1024, 64);
  small.spare_scheme = "ps";
  ExperimentConfig stoch = scaled_stochastic_config(512, 32, 300.0);
  stoch.spare_scheme = "maxwe";
  for (const ExperimentConfig* c : {&big, &small, &stoch, &big, &stoch}) {
    const LifetimeResult fresh = run_experiment(*c);
    const LifetimeResult reused = run_experiment(*c, &ws);
    expect_identical(fresh, reused);
  }
}

TEST(ExperimentWorkspaceTest, BenchmarkCallShapeRunsThroughTheWorkspace) {
  // perfbench/ calls run_experiment(config, nullptr, &workspace); the
  // forwarding overload must run exactly what the workspace call runs.
  ExperimentWorkspace ws;
  ExperimentWorkspace reference_ws;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    ExperimentConfig c = small_event_config();
    c.spare_scheme = "maxwe";
    c.seed = seed;
    expect_identical(run_experiment(c, &reference_ws),
                     run_experiment(c, nullptr, &ws));
  }
}

TEST(ExperimentWorkspaceTest, LineJitterRunsMatchThroughReuse) {
  // apply_line_jitter draws extra RNG — the rebuild path must consume the
  // identical stream so the jittered map (and everything after) matches.
  ExperimentWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExperimentConfig c = small_event_config();
    c.spare_scheme = "maxwe";
    c.line_jitter_sigma = 0.2;
    c.seed = seed;
    const LifetimeResult fresh = run_experiment(c);
    const LifetimeResult reused = run_experiment(c, &ws);
    expect_identical(fresh, reused);
  }
}

// An endurance map unlike any seed's model draw under small_event_config():
// a shuffled linear ramp, as a map loaded from a file might be.
std::shared_ptr<const EnduranceMap> foreign_map() {
  Rng rng(2024);
  return std::make_shared<const EnduranceMap>(EnduranceMap::linear(
      DeviceGeometry::scaled(2048, 128), 300.0, 2500.0, true, rng));
}

// The pipeline maxwe_sim --load-map used to run on its own: jitter a copy
// of the map from a fresh Rng(seed), build the scheme from the same
// stream, run the event engine.
LifetimeResult reference_map_run(const ExperimentConfig& config,
                                 const EnduranceMap& loaded) {
  auto map = std::make_shared<EnduranceMap>(loaded);
  Rng rng(config.seed);
  if (config.line_jitter_sigma > 0) {
    map->apply_line_jitter(config.line_jitter_sigma, rng);
  }
  const std::uint64_t spare_lines = config.spare_lines();
  std::unique_ptr<SpareScheme> spare;
  if (config.spare_scheme == "none") spare = make_no_spare(map);
  if (config.spare_scheme == "pcd") spare = make_pcd(map, spare_lines, rng);
  if (config.spare_scheme == "ps") spare = make_ps(map, spare_lines, rng);
  if (config.spare_scheme == "freep") spare = make_freep(map, spare_lines);
  if (config.spare_scheme == "maxwe") spare = make_maxwe(map, MaxWeParams{});
  UniformEventSimulator sim(map, *spare);
  return sim.run();
}

TEST(SuppliedMapTest, RunEqualsTheLoadMapPipeline) {
  const std::shared_ptr<const EnduranceMap> map = foreign_map();
  for (const char* scheme : {"none", "pcd", "ps", "freep", "maxwe"}) {
    for (const double jitter : {0.0, 0.1}) {
      ExperimentConfig c = small_event_config();
      c.endurance_map = map;
      c.spare_scheme = scheme;
      c.line_jitter_sigma = jitter;
      c.seed = 7;
      SCOPED_TRACE(std::string(scheme) + " jitter " + std::to_string(jitter));
      expect_identical(reference_map_run(c, *map), run_experiment(c));
    }
  }
}

TEST(SuppliedMapTest, ReachesEveryRunOfABatchAtAnyJobCount) {
  // A supplied map, not the seed's model draw, must reach every run of a
  // batch, at any job count.
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ExperimentConfig& c = configs.emplace_back(small_event_config());
    c.endurance_map = foreign_map();
    c.spare_scheme = "pcd";
    c.seed = seed;
  }
  ExperimentConfig model_draw = configs[0];
  model_draw.endurance_map = nullptr;
  EXPECT_NE(run_experiment(model_draw).normalized,
            run_experiment(configs[0]).normalized);
  for (const std::size_t jobs : {1u, 4u}) {
    ParallelOptions options;
    options.jobs = jobs;
    const std::vector<LifetimeResult> results =
        run_experiments(configs, options);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + " run " +
                   std::to_string(i));
      expect_identical(run_experiment(configs[i]), results[i]);
    }
  }
}

TEST(SuppliedMapTest, RunsThroughAWorkspaceWithoutTouchingItsMap) {
  ExperimentWorkspace ws;
  ExperimentConfig drawn = small_event_config();
  drawn.spare_scheme = "maxwe";
  ExperimentConfig supplied = drawn;
  supplied.endurance_map = foreign_map();
  for (const ExperimentConfig* c : {&drawn, &supplied, &drawn, &supplied}) {
    expect_identical(run_experiment(*c), run_experiment(*c, &ws));
  }
}

TEST(SuppliedMapTest, GeometryMismatchThrows) {
  ExperimentConfig c = small_event_config();
  c.endurance_map = foreign_map();
  c.geometry = DeviceGeometry::scaled(1024, 64);
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(ConfigFingerprintTest, SuppliedMapIsHashed) {
  ExperimentConfig a = small_event_config();
  a.endurance_map = foreign_map();
  ExperimentConfig b = a;
  b.endurance_map = std::make_shared<const EnduranceMap>(*a.endurance_map);
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
  auto other = std::make_shared<EnduranceMap>(*a.endurance_map);
  other->scale_region_endurance(RegionId{5}, 1.5);
  b.endurance_map = other;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  // Per-line values count too, even where they equal the region's.
  auto per_line = std::make_shared<EnduranceMap>(*a.endurance_map);
  per_line->set_line_endurance(PhysLineAddr{0},
                               per_line->line_endurance(PhysLineAddr{0}));
  b.endurance_map = per_line;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  b.endurance_map = nullptr;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
}

TEST(ConfigFingerprintTest, ConfigsWithoutAMapKeepTheirFingerprint) {
  // Pinned before the map field existed: checkpoints and sweep and fleet
  // journals written then must still resume.
  EXPECT_EQ(config_fingerprint(ExperimentConfig{}), 0x9a09221cfd90db6cULL);
  ExperimentConfig c = scaled_stochastic_config(512, 32, 300.0);
  c.spare_scheme = "maxwe";
  EXPECT_EQ(config_fingerprint(c), 0xa843f5e34487b75cULL);
}

TEST(MaxWeAblationNamesTest, EachNameIsAHandBuiltMaxWe) {
  struct Variant {
    const char* name;
    SpareSelectionPolicy selection;
    MatchingPolicy matching;
  };
  for (const Variant& v :
       {Variant{"maxwe-identity", SpareSelectionPolicy::kWeakPriority,
                MatchingPolicy::kIdentity},
        Variant{"maxwe-random", SpareSelectionPolicy::kRandomRegions,
                MatchingPolicy::kWeakStrong},
        Variant{"maxwe-random-identity", SpareSelectionPolicy::kRandomRegions,
                MatchingPolicy::kIdentity}}) {
    for (const double swr_fraction : {0.9, 1.0}) {
      ExperimentConfig c = small_event_config();
      c.spare_scheme = v.name;
      c.swr_fraction = swr_fraction;
      c.seed = 3;
      Rng rng(c.seed);
      auto map = std::make_shared<EnduranceMap>(EnduranceMap::from_model(
          c.geometry, EnduranceModel(c.endurance), rng));
      MaxWeParams params;
      params.swr_fraction = swr_fraction;
      params.selection = v.selection;
      params.matching = v.matching;
      const auto scheme = make_maxwe(map, params);
      UniformEventSimulator sim(map, *scheme);
      SCOPED_TRACE(std::string(v.name) + " q " + std::to_string(swr_fraction));
      expect_identical(sim.run(), run_experiment(c));
    }
  }
}

TEST(MaxWeAblationNamesTest, OtherMaxWeNamesAreRejected) {
  for (const char* name :
       {"maxwe-", "maxwe-bogus", "maxwe-identity-random", "maxwe-Random"}) {
    ExperimentConfig c = small_event_config();
    c.spare_scheme = name;
    EXPECT_THROW(run_experiment(c), std::invalid_argument) << name;
  }
}

}  // namespace
}  // namespace nvmsec
