#include "core/maxwe.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "util/rng.h"
#include "util/serialize.h"

namespace nvmsec {
namespace {

// 32 regions x 8 lines; region r has endurance 10*(r+1) so region ids are
// already in ascending endurance order.
std::shared_ptr<const EnduranceMap> ramp_map() {
  std::vector<Endurance> es;
  for (int r = 0; r < 32; ++r) es.push_back(10.0 * (r + 1));
  return std::make_shared<EnduranceMap>(DeviceGeometry::scaled(256, 32), es);
}

MaxWeParams params(double spare = 0.25, double swr = 0.75) {
  MaxWeParams p;
  p.spare_fraction = spare;  // 8 regions
  p.swr_fraction = swr;      // 6 SWRs, 2 ASRs
  return p;
}

TEST(MaxWeParamsTest, Validation) {
  MaxWeParams p;
  EXPECT_NO_THROW(p.validate());
  p.spare_fraction = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.spare_fraction = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.swr_fraction = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(MaxWeTest, RegionRolesFromRamp) {
  MaxWe m(ramp_map(), params());
  // SWR = regions 0..5, RWR = 6..11, ASR = 12..13.
  ASSERT_EQ(m.swr_regions().size(), 6u);
  ASSERT_EQ(m.rwr_regions().size(), 6u);
  ASSERT_EQ(m.asr_regions().size(), 2u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(m.swr_regions()[i].value(), i);
    EXPECT_EQ(m.rwr_regions()[i].value(), 6 + i);
  }
  EXPECT_EQ(m.asr_regions()[0].value(), 12u);
  EXPECT_EQ(m.asr_regions()[1].value(), 13u);
  // Working space: 32 - 8 spare regions = 24 regions.
  EXPECT_EQ(m.working_lines(), 24u * 8u);
}

TEST(MaxWeTest, WeakStrongMatchingIsAntitone) {
  MaxWe m(ramp_map(), params());
  // Weakest RWR (6) <- strongest SWR (5); strongest RWR (11) <- weakest (0).
  EXPECT_EQ(m.rmt().spare_of(RegionId{6}), RegionId{5});
  EXPECT_EQ(m.rmt().spare_of(RegionId{7}), RegionId{4});
  EXPECT_EQ(m.rmt().spare_of(RegionId{11}), RegionId{0});
  // Chain capacities e_rwr + e_swr are balanced: every pair sums to
  // 10*(7+6) = 130.
  const auto map = ramp_map();
  for (const auto& [pra, sra] : m.rmt().pairs()) {
    EXPECT_DOUBLE_EQ(
        map->region_endurance(pra) + map->region_endurance(sra), 130.0);
  }
}

TEST(MaxWeTest, SpareConfigLeavingNoUserSpaceThrows) {
  MaxWeParams p;
  p.spare_fraction = 0.5;  // 16 spare regions, 12 SWR -> 2*12+4 = 28 < 32 OK
  p.swr_fraction = 0.75;
  EXPECT_NO_THROW(MaxWe(ramp_map(), p));
  p.spare_fraction = 0.6;  // 19 spare, 14 SWR -> 2*14+5 = 33 > 32
  p.swr_fraction = 0.75;
  EXPECT_THROW(MaxWe(ramp_map(), p), std::invalid_argument);
}

TEST(MaxWeTest, ZeroSpareBehavesLikeNoProtection) {
  MaxWe m(ramp_map(), params(0.0, 0.9));
  EXPECT_EQ(m.working_lines(), 256u);
  EXPECT_FALSE(m.on_wear_out(0));
}

TEST(MaxWeTest, AllSwrNoAsr) {
  MaxWe m(ramp_map(), params(0.25, 1.0));
  EXPECT_EQ(m.asr_regions().size(), 0u);
  EXPECT_EQ(m.asr_pool_remaining(), 0u);
  // A non-RWR wear-out cannot be replaced.
  std::uint64_t outside_idx = UINT64_MAX;
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    if (m.working_line(i).value() / 8 >= 20) {
      outside_idx = i;
      break;
    }
  }
  ASSERT_NE(outside_idx, UINT64_MAX);
  EXPECT_FALSE(m.on_wear_out(outside_idx));
}

TEST(MaxWeTest, AllAsrNoSwr) {
  MaxWe m(ramp_map(), params(0.25, 0.0));
  EXPECT_EQ(m.swr_regions().size(), 0u);
  EXPECT_EQ(m.rwr_regions().size(), 0u);
  EXPECT_EQ(m.rmt().size(), 0u);
  EXPECT_EQ(m.asr_pool_remaining(), 8u * 8u);
  // Every wear-out takes the LMT path.
  EXPECT_TRUE(m.on_wear_out(0));
  EXPECT_EQ(m.lmt().size(), 1u);
}

TEST(MaxWeTest, AsrAllocationIsStrongestFirst) {
  MaxWe m(ramp_map(), params());
  // ASR regions are 12 (endurance 130) and 13 (endurance 140): allocation
  // must start in region 13.
  std::uint64_t outside_idx = 0;
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    if (m.working_line(i).value() / 8 >= 14) {
      outside_idx = i;
      break;
    }
  }
  ASSERT_TRUE(m.on_wear_out(outside_idx));
  EXPECT_EQ(m.resolve(outside_idx).value() / 8, 13u);
}

TEST(MaxWeTest, SwrPartnerDeathFallsBackToAsr) {
  MaxWe m(ramp_map(), params());
  // Working index of an RWR line (region 6).
  std::uint64_t idx = UINT64_MAX;
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    if (m.working_line(i).value() / 8 == 6) {
      idx = i;
      break;
    }
  }
  ASSERT_NE(idx, UINT64_MAX);
  ASSERT_TRUE(m.on_wear_out(idx));  // -> SWR partner (region 5)
  EXPECT_EQ(m.resolve(idx).value() / 8, 5u);
  ASSERT_TRUE(m.on_wear_out(idx));  // partner dies -> ASR via LMT
  EXPECT_EQ(m.resolve(idx).value() / 8, 13u);
  EXPECT_EQ(m.lmt().size(), 1u);
  // Read path: LMT entry takes precedence over the RMT wear-out tag.
  EXPECT_EQ(m.translate_read(m.working_line(idx)), m.resolve(idx));
}

TEST(MaxWeTest, LmtSpareDeathReplacesEntry) {
  MaxWe m(ramp_map(), params());
  std::uint64_t idx = 0;
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    if (m.working_line(i).value() / 8 >= 14) {
      idx = i;
      break;
    }
  }
  ASSERT_TRUE(m.on_wear_out(idx));
  const PhysLineAddr first = m.resolve(idx);
  ASSERT_TRUE(m.on_wear_out(idx));  // the spare itself dies
  const PhysLineAddr second = m.resolve(idx);
  EXPECT_NE(first, second);
  EXPECT_EQ(m.lmt().size(), 1u);  // old entry replaced, not leaked
  EXPECT_EQ(m.lmt().lookup(m.working_line(idx)), second);
}

TEST(MaxWeTest, ResolveMatchesTranslateReadEverywhere) {
  MaxWe m(ramp_map(), params());
  Rng rng(3);
  // Randomly wear out a bunch of lines, then check cache/table agreement.
  for (int k = 0; k < 60; ++k) {
    const std::uint64_t idx = rng.uniform_u64(m.working_lines());
    m.on_wear_out(idx);
  }
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    EXPECT_EQ(m.resolve(i), m.translate_read(m.working_line(i))) << i;
  }
}

TEST(MaxWeTest, SparesNeverAliasAcrossWorkingIndices) {
  MaxWe m(ramp_map(), params());
  std::set<std::uint64_t> backings;
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    EXPECT_TRUE(backings.insert(m.resolve(i).value()).second);
  }
  // After a wave of wear-outs the mapping must stay injective.
  for (std::uint64_t i = 0; i < 40; ++i) m.on_wear_out(i);
  backings.clear();
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    EXPECT_TRUE(backings.insert(m.resolve(i).value()).second);
  }
}

TEST(MaxWeTest, StatsReflectState) {
  MaxWe m(ramp_map(), params());
  const auto before = m.stats();
  EXPECT_EQ(before.line_deaths, 0u);
  EXPECT_EQ(before.rmt_entries, 6u);
  EXPECT_EQ(before.lmt_entries, 0u);
  EXPECT_EQ(before.spares_remaining, 16u);
  m.on_wear_out(0);
  const auto after = m.stats();
  EXPECT_EQ(after.line_deaths, 1u);
  EXPECT_EQ(after.replacements, 1u);
}

TEST(MaxWeTest, ResetRestoresBootState) {
  MaxWe m(ramp_map(), params());
  for (std::uint64_t i = 0; i < 30; ++i) m.on_wear_out(i);
  m.reset();
  EXPECT_EQ(m.stats().line_deaths, 0u);
  EXPECT_EQ(m.lmt().size(), 0u);
  EXPECT_EQ(m.rmt().tags_set(), 0u);
  EXPECT_EQ(m.asr_pool_remaining(), 16u);
  for (std::uint64_t i = 0; i < m.working_lines(); ++i) {
    EXPECT_EQ(m.resolve(i), m.working_line(i));
  }
}

TEST(MaxWeTest, RebindMatchesAFreshInstanceOnEveryMap) {
  // One instance rebound across three maps, worn between rebinds, must be
  // the instance a fresh constructor builds on each map: same roles and
  // pairing, and after the same wear-outs the same checkpoint bytes.
  const DeviceGeometry geom = DeviceGeometry::scaled(512, 32);
  const EnduranceModel model;
  for (const SpareSelectionPolicy selection :
       {SpareSelectionPolicy::kWeakPriority,
        SpareSelectionPolicy::kRandomRegions}) {
    MaxWeParams p = params();
    p.selection = selection;
    std::unique_ptr<MaxWe> rebound;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rng map_rng(seed);
      const auto map = std::make_shared<const EnduranceMap>(
          EnduranceMap::from_model(geom, model, map_rng));
      Rng unused(0);
      if (rebound == nullptr) {
        rebound = std::make_unique<MaxWe>(map, p);
      } else {
        ASSERT_TRUE(rebound->rebind(map, unused));
      }
      MaxWe fresh(map, p);
      EXPECT_EQ(rebound->swr_regions(), fresh.swr_regions());
      EXPECT_EQ(rebound->rwr_regions(), fresh.rwr_regions());
      EXPECT_EQ(rebound->asr_regions(), fresh.asr_regions());
      EXPECT_EQ(rebound->rmt().pairs(), fresh.rmt().pairs());
      EXPECT_EQ(rebound->rmt().tags_set(), 0u);

      // Wear out every working line once: RWR lines set wear-out tags, the
      // rest draw on the ASR pool until it runs dry.
      for (std::uint64_t i = 0; i < fresh.working_lines(); ++i) {
        EXPECT_EQ(rebound->on_wear_out(i), fresh.on_wear_out(i));
      }
      StateWriter a, b;
      rebound->save_state(a);
      fresh.save_state(b);
      EXPECT_EQ(a.buffer(), b.buffer()) << "seed " << seed;
      EXPECT_GT(rebound->rmt().tags_set(), 0u);
    }
  }
}

TEST(MaxWeTest, OutOfRangeAccessesThrow) {
  MaxWe m(ramp_map(), params());
  EXPECT_THROW(m.working_line(m.working_lines()), std::out_of_range);
  EXPECT_THROW(m.resolve(m.working_lines()), std::out_of_range);
  EXPECT_THROW(m.on_wear_out(m.working_lines()), std::out_of_range);
  EXPECT_THROW(m.translate_read(PhysLineAddr{256}), std::out_of_range);
}

TEST(MaxWeAblationTest, RandomSelectionIsDeterministicPerSeed) {
  MaxWeParams p = params();
  p.selection = SpareSelectionPolicy::kRandomRegions;
  p.selection_seed = 7;
  MaxWe a(ramp_map(), p);
  MaxWe b(ramp_map(), p);
  EXPECT_EQ(a.swr_regions(), b.swr_regions());
  EXPECT_EQ(a.asr_regions(), b.asr_regions());
  p.selection_seed = 8;
  MaxWe c(ramp_map(), p);
  EXPECT_NE(a.swr_regions(), c.swr_regions());
}

TEST(MaxWeAblationTest, RandomSelectionKeepsStructureValid) {
  MaxWeParams p = params();
  p.selection = SpareSelectionPolicy::kRandomRegions;
  MaxWe m(ramp_map(), p);
  // Same population counts as weak-priority.
  EXPECT_EQ(m.swr_regions().size(), 6u);
  EXPECT_EQ(m.rwr_regions().size(), 6u);
  EXPECT_EQ(m.asr_regions().size(), 2u);
  EXPECT_EQ(m.rmt().size(), 6u);
  // RWRs are user space and never overlap the spare regions.
  std::set<std::uint64_t> spare_set;
  for (RegionId r : m.swr_regions()) spare_set.insert(r.value());
  for (RegionId r : m.asr_regions()) spare_set.insert(r.value());
  EXPECT_EQ(spare_set.size(), 8u);
  for (RegionId r : m.rwr_regions()) {
    EXPECT_FALSE(spare_set.contains(r.value()));
  }
  // SWR slice is endurance-sorted, so matching stays antitone even here.
  const auto map = ramp_map();
  for (std::size_t i = 1; i < m.swr_regions().size(); ++i) {
    EXPECT_LE(map->region_endurance(m.swr_regions()[i - 1]),
              map->region_endurance(m.swr_regions()[i]));
  }
  // The scheme still functions end to end.
  EXPECT_TRUE(m.on_wear_out(0));
}

TEST(MaxWeAblationTest, IdentityMatchingPairsInLikeOrder) {
  MaxWeParams p = params();
  p.matching = MatchingPolicy::kIdentity;
  MaxWe m(ramp_map(), p);
  // Weakest RWR (6) <- weakest SWR (0), strongest RWR (11) <- SWR 5.
  EXPECT_EQ(m.rmt().spare_of(RegionId{6}), RegionId{0});
  EXPECT_EQ(m.rmt().spare_of(RegionId{11}), RegionId{5});
}

TEST(MaxWeTest, PaperDefaultsOnPaperGeometry) {
  // 1 GB / 2048 regions with 10% spares and 90% SWRs: 205 spare regions,
  // 185 SWRs (llround(184.5) rounds half away from zero), 20 ASRs.
  Rng rng(1);
  const EnduranceModel model;
  auto map = std::make_shared<EnduranceMap>(
      EnduranceMap::from_model(DeviceGeometry::paper_1gb(), model, rng));
  MaxWe m(map, MaxWeParams{});
  EXPECT_EQ(m.swr_regions().size() + m.asr_regions().size(), 205u);
  EXPECT_EQ(m.swr_regions().size(), 185u);
  EXPECT_EQ(m.working_lines(), (2048u - 205u) * 2048u);
  EXPECT_EQ(m.rmt().size(), 185u);
}

}  // namespace
}  // namespace nvmsec
