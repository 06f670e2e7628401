#include "sim/endurance_cache.h"

#include <gtest/gtest.h>

#include "nvm/endurance_map.h"
#include "sim/experiment.h"

namespace nvmsec {
namespace {

DeviceGeometry small_geometry() { return DeviceGeometry::scaled(1024, 64); }

TEST(EnduranceMapCacheTest, ZeroCapacityRejected) {
  EXPECT_THROW(EnduranceMapCache(0), std::invalid_argument);
}

TEST(EnduranceMapCacheTest, RepeatedKeyHitsAndSharesOneMap) {
  EnduranceMapCache cache(4);
  EnduranceModelParams params;
  const auto first = cache.get_or_build(small_geometry(), params, 42, 0.0);
  const auto second = cache.get_or_build(small_geometry(), params, 42, 0.0);
  EXPECT_EQ(first.map.get(), second.map.get());  // literally shared
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EnduranceMapCacheTest, AnyKeyComponentChangeIsAMiss) {
  EnduranceMapCache cache(16);
  EnduranceModelParams params;
  cache.get_or_build(small_geometry(), params, 42, 0.0);

  cache.get_or_build(small_geometry(), params, 43, 0.0);  // seed
  cache.get_or_build(small_geometry(), params, 42, 0.1);  // jitter
  cache.get_or_build(DeviceGeometry::scaled(2048, 64), params, 42,
                     0.0);  // geometry
  EnduranceModelParams other = params;
  other.endurance_exponent = 6.0;
  cache.get_or_build(small_geometry(), other, 42, 0.0);  // model params

  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(EnduranceMapCacheTest, CachedMapEqualsColdBuild) {
  EnduranceMapCache cache(4);
  EnduranceModelParams params;
  const auto built = cache.get_or_build(small_geometry(), params, 7, 0.25);

  Rng rng(7);
  EnduranceMap expected =
      EnduranceMap::from_model(small_geometry(), EnduranceModel(params), rng);
  expected.apply_line_jitter(0.25, rng);

  ASSERT_EQ(built.map->geometry().num_lines(), expected.geometry().num_lines());
  for (std::uint64_t line = 0; line < expected.geometry().num_lines();
       ++line) {
    ASSERT_DOUBLE_EQ(built.map->line_endurance(PhysLineAddr{line}),
                     expected.line_endurance(PhysLineAddr{line}))
        << "line " << line;
  }
  // The memoized RNG stream continues exactly where the cold build's did.
  Rng replay = built.rng_after_build;
  EXPECT_EQ(replay.generator().next(), rng.generator().next());
  EXPECT_EQ(replay.generator().next(), rng.generator().next());
}

TEST(EnduranceMapCacheTest, RunExperimentWithCacheIsBitIdentical) {
  EnduranceMapCache cache(4);
  // pcd consumes rng draws after map construction and the stochastic engine
  // keeps drawing throughout the run, so any rng desynchronization from the
  // cache would show up here.
  ExperimentConfig c = scaled_stochastic_config(1024, 64, 2000.0);
  c.attack = "bpa";
  c.wear_leveler = "wawl";
  c.spare_scheme = "pcd";
  c.line_jitter_sigma = 0.2;
  c.seed = 13;

  const LifetimeResult cold = run_experiment(c);
  const LifetimeResult miss = run_experiment(c, &cache);
  const LifetimeResult hit = run_experiment(c, &cache);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  for (const LifetimeResult* r : {&miss, &hit}) {
    EXPECT_DOUBLE_EQ(r->user_writes, cold.user_writes);
    EXPECT_DOUBLE_EQ(r->normalized, cold.normalized);
    EXPECT_EQ(r->overhead_writes, cold.overhead_writes);
    EXPECT_EQ(r->device_writes, cold.device_writes);
    EXPECT_EQ(r->line_deaths, cold.line_deaths);
    EXPECT_EQ(r->failure_reason, cold.failure_reason);
  }
}

TEST(EnduranceMapCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  EnduranceMapCache cache(2);
  EnduranceModelParams params;
  const DeviceGeometry g = small_geometry();

  cache.get_or_build(g, params, 1, 0.0);  // {1}
  cache.get_or_build(g, params, 2, 0.0);  // {2, 1}
  cache.get_or_build(g, params, 1, 0.0);  // hit -> {1, 2}
  EXPECT_EQ(cache.hits(), 1u);

  cache.get_or_build(g, params, 3, 0.0);  // evicts 2 -> {3, 1}
  EXPECT_EQ(cache.size(), 2u);

  cache.get_or_build(g, params, 1, 0.0);  // still resident
  EXPECT_EQ(cache.hits(), 2u);
  cache.get_or_build(g, params, 2, 0.0);  // was evicted -> miss again
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(EnduranceMapCacheTest, ClearEmptiesButKeepsStats) {
  EnduranceMapCache cache(4);
  EnduranceModelParams params;
  cache.get_or_build(small_geometry(), params, 1, 0.0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.get_or_build(small_geometry(), params, 1, 0.0);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace nvmsec
