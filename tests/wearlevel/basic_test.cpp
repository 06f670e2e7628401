// Tests for the identity and Start-Gap wear levelers plus the invariants
// every leveler must uphold: a bijective mapping, exact batch horizons, and
// restores that refuse cadence state the scheme cannot reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/serialize.h"
#include "wearlevel/adaptive.h"
#include "wearlevel/none.h"
#include "wearlevel/security_refresh.h"
#include "wearlevel/start_gap.h"
#include "wearlevel/wawl.h"
#include "wearlevel/wear_leveler.h"

namespace nvmsec {
namespace {

// Drive `wl` with `writes` sequential user writes and verify the mapping
// stays a bijection throughout. Returns per-working-index write counts.
std::vector<int> drive_and_check(WearLeveler& wl, int writes, Rng& rng) {
  std::vector<int> counts(wl.working_lines(), 0);
  std::vector<WlPhysWrite> batch;
  std::uint64_t la = 0;
  for (int i = 0; i < writes; ++i) {
    batch.clear();
    wl.on_write(LogicalLineAddr{la}, rng, batch);
    la = (la + 1) % wl.logical_lines();
    EXPECT_FALSE(batch.empty());
    EXPECT_FALSE(batch.back().is_overhead);  // user write comes last
    for (const auto& w : batch) {
      EXPECT_LT(w.working_index, wl.working_lines());
      ++counts[w.working_index];
    }
    // Bijection check (on a sample of iterations to keep the test fast).
    if (i % 97 == 0) {
      std::set<std::uint64_t> targets;
      for (std::uint64_t l = 0; l < wl.logical_lines(); ++l) {
        targets.insert(wl.translate(LogicalLineAddr{l}));
      }
      EXPECT_EQ(targets.size(), wl.logical_lines());
    }
  }
  return counts;
}

TEST(NoWearLevelingTest, IdentityMapping) {
  NoWearLeveling wl(32);
  Rng rng(1);
  EXPECT_EQ(wl.logical_lines(), 32u);
  EXPECT_EQ(wl.working_lines(), 32u);
  for (std::uint64_t l = 0; l < 32; ++l) {
    EXPECT_EQ(wl.translate(LogicalLineAddr{l}), l);
  }
  std::vector<WlPhysWrite> batch;
  wl.on_write(LogicalLineAddr{5}, rng, batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].working_index, 5u);
  EXPECT_FALSE(batch[0].is_overhead);
  EXPECT_EQ(wl.overhead_writes(), 0u);
}

TEST(NoWearLevelingTest, TranslateOutOfRangeThrows) {
  NoWearLeveling wl(8);
  EXPECT_THROW(wl.translate(LogicalLineAddr{8}), std::out_of_range);
}

TEST(NoWearLevelingTest, EmptyOrHugeWorkingSetRejected) {
  EXPECT_THROW(NoWearLeveling(0), std::invalid_argument);
}

TEST(StartGapTest, Construction) {
  EXPECT_THROW(StartGap(1, 10), std::invalid_argument);
  EXPECT_THROW(StartGap(16, 0), std::invalid_argument);
  StartGap wl(16, 4);
  EXPECT_EQ(wl.logical_lines(), 15u);  // one slot is the gap
  EXPECT_EQ(wl.working_lines(), 16u);
  EXPECT_EQ(wl.gap_slot(), 15u);
}

TEST(StartGapTest, GapMovesEveryPsiWrites) {
  StartGap wl(16, 4);
  Rng rng(1);
  std::vector<WlPhysWrite> batch;
  for (int i = 0; i < 3; ++i) {
    batch.clear();
    wl.on_write(LogicalLineAddr{0}, rng, batch);
    EXPECT_EQ(batch.size(), 1u);  // no movement yet
  }
  batch.clear();
  wl.on_write(LogicalLineAddr{0}, rng, batch);  // 4th write: gap moves
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].is_overhead);
  EXPECT_EQ(batch[0].working_index, 15u);  // migration into the old gap
  EXPECT_EQ(wl.gap_slot(), 14u);
  EXPECT_EQ(wl.overhead_writes(), 1u);
}

TEST(StartGapTest, GapNeverServesUserWrites) {
  StartGap wl(16, 2);
  Rng rng(1);
  std::vector<WlPhysWrite> batch;
  for (int i = 0; i < 200; ++i) {
    batch.clear();
    wl.on_write(LogicalLineAddr{static_cast<std::uint64_t>(i) % 15}, rng,
                batch);
    EXPECT_NE(batch.back().working_index, wl.gap_slot());
  }
}

TEST(StartGapTest, FullRotationShiftsEveryLine) {
  // After working_lines gap moves the gap returns to its start slot and the
  // data layout has rotated by one.
  StartGap wl(8, 1);  // move every write
  Rng rng(1);
  const std::vector<std::uint64_t> before = [&] {
    std::vector<std::uint64_t> v;
    for (std::uint64_t l = 0; l < 7; ++l) {
      v.push_back(wl.translate(LogicalLineAddr{l}));
    }
    return v;
  }();
  std::vector<WlPhysWrite> batch;
  for (int i = 0; i < 8; ++i) {
    batch.clear();
    wl.on_write(LogicalLineAddr{0}, rng, batch);
  }
  EXPECT_EQ(wl.gap_slot(), 7u);  // full cycle
  int moved = 0;
  for (std::uint64_t l = 0; l < 7; ++l) {
    if (wl.translate(LogicalLineAddr{l}) != before[l]) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(StartGapTest, StaysBijectiveUnderLoad) {
  StartGap wl(64, 3);
  Rng rng(2);
  drive_and_check(wl, 2000, rng);
}

TEST(StartGapTest, ResetRestoresIdentityAndGap) {
  StartGap wl(16, 1);
  Rng rng(1);
  std::vector<WlPhysWrite> batch;
  for (int i = 0; i < 10; ++i) {
    batch.clear();
    wl.on_write(LogicalLineAddr{0}, rng, batch);
  }
  wl.reset();
  EXPECT_EQ(wl.gap_slot(), 15u);
  EXPECT_EQ(wl.overhead_writes(), 0u);
  for (std::uint64_t l = 0; l < 15; ++l) {
    EXPECT_EQ(wl.translate(LogicalLineAddr{l}), l);
  }
}

TEST(FactoryTest, AllSchemesConstructAndRun) {
  Rng rng(3);
  WearLevelerParams params;
  params.swap_interval = 5;
  params.tlsr_subregion_lines = 16;
  EnduranceView view(64);
  for (std::size_t i = 0; i < 64; ++i) {
    view[i] = 100.0 + static_cast<double>(i);
  }
  for (const std::string name :
       {"none", "startgap", "tlsr", "pcms", "bwl", "wawl"}) {
    auto wl = make_wear_leveler(name, 64, view, params, rng);
    ASSERT_NE(wl, nullptr) << name;
    EXPECT_EQ(wl->name(), name);
    drive_and_check(*wl, 500, rng);
  }
  EXPECT_THROW(make_wear_leveler("bogus", 64, view, params, rng),
               std::invalid_argument);
}

TEST(BatchHorizonTest, IdentityLevelerNeverRemaps) {
  NoWearLeveling wl(32);
  EXPECT_EQ(wl.writes_until_remap(), WearLeveler::kNeverRemaps);
  const std::uint64_t epoch = wl.mapping_epoch();
  wl.commit_batched_writes(1'000'000);  // no cadence to advance: a no-op
  EXPECT_EQ(wl.writes_until_remap(), WearLeveler::kNeverRemaps);
  EXPECT_EQ(wl.mapping_epoch(), epoch);
}

TEST(BatchHorizonTest, StartGapHorizonCountsDownToTheGapMove) {
  StartGap wl(16, 4);  // psi = 4
  Rng rng(1);
  std::vector<WlPhysWrite> batch;
  // Fresh leveler: 3 writes are safe, the 4th moves the gap.
  EXPECT_EQ(wl.writes_until_remap(), 3u);
  wl.on_write(LogicalLineAddr{0}, rng, batch);
  EXPECT_EQ(wl.writes_until_remap(), 2u);
  const std::uint64_t epoch = wl.mapping_epoch();
  wl.commit_batched_writes(2);
  EXPECT_EQ(wl.writes_until_remap(), 0u);
  EXPECT_EQ(wl.mapping_epoch(), epoch);  // fast-forward moves no mapping
  batch.clear();
  wl.on_write(LogicalLineAddr{0}, rng, batch);  // the gap move fires here
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].is_overhead);
  EXPECT_NE(wl.mapping_epoch(), epoch);
  EXPECT_EQ(wl.writes_until_remap(), 3u);  // cadence restarted
}

TEST(BatchHorizonTest, HorizonWritesAreMigrationAndEpochFree) {
  // Every batching leveler must take writes_until_remap() writes without
  // emitting migration writes or changing the mapping — that is exactly
  // what lets the engine skip per-write on_write() calls.
  Rng rng(3);
  WearLevelerParams params;
  params.swap_interval = 5;
  params.tlsr_subregion_lines = 16;
  EnduranceView view(64);
  for (std::size_t i = 0; i < 64; ++i) {
    view[i] = 100.0 + static_cast<double>(i);
  }
  for (const std::string name : {"startgap", "pcms", "bwl", "twl"}) {
    auto wl = make_wear_leveler(name, 64, view, params, rng);
    const std::uint64_t h = wl->writes_until_remap();
    ASSERT_EQ(h, params.swap_interval - 1) << name;
    std::vector<WlPhysWrite> batch;
    for (std::uint64_t i = 0; i < h; ++i) {
      const std::uint64_t epoch = wl->mapping_epoch();
      batch.clear();
      wl->on_write(LogicalLineAddr{i % wl->logical_lines()}, rng, batch);
      EXPECT_EQ(batch.size(), 1u) << name << " write " << i;
      EXPECT_FALSE(batch[0].is_overhead) << name;
      EXPECT_EQ(wl->mapping_epoch(), epoch) << name;
      EXPECT_EQ(wl->writes_until_remap(), h - i - 1) << name;
    }
    // The next write crosses the cadence; afterwards the horizon restarts.
    batch.clear();
    wl->on_write(LogicalLineAddr{0}, rng, batch);
    EXPECT_EQ(wl->writes_until_remap(), h) << name;
  }
}

TEST(BatchHorizonTest, CommitFastForwardMatchesPerWriteCadence) {
  Rng rng_a(7), rng_b(7);
  WearLevelerParams params;
  params.swap_interval = 6;
  EnduranceView view(32, 200.0);
  auto a = make_wear_leveler("pcms", 32, view, params, rng_a);
  auto b = make_wear_leveler("pcms", 32, view, params, rng_b);
  // a: three per-write calls; b: one commit of three. Cadence must agree.
  std::vector<WlPhysWrite> batch;
  for (int i = 0; i < 3; ++i) {
    batch.clear();
    a->on_write(LogicalLineAddr{static_cast<std::uint64_t>(i)}, rng_a, batch);
  }
  b->commit_batched_writes(3);
  EXPECT_EQ(a->writes_until_remap(), b->writes_until_remap());
}

TEST(BatchHorizonTest, PerWriteStateLevelersDeclineBatching) {
  Rng rng(5);
  WearLevelerParams params;
  params.swap_interval = 5;
  params.tlsr_subregion_lines = 16;
  EnduranceView view(64, 150.0);
  for (const std::string name : {"tlsr", "wawl"}) {
    auto wl = make_wear_leveler(name, 64, view, params, rng);
    EXPECT_EQ(wl->writes_until_remap(), 0u) << name;
    EXPECT_THROW(wl->commit_batched_writes(1), std::logic_error) << name;
    wl->commit_batched_writes(0);  // an empty commit is always fine
  }
}

std::vector<std::uint8_t> state_of(const WearLeveler& wl) {
  StateWriter w;
  wl.save_state(w);
  return w.take();
}

std::vector<std::uint8_t> state_of(const Rng& rng) {
  StateWriter w;
  rng.save_state(w);
  return w.take();
}

// Every bundled leveler on 64 lines at a cadence of 5, so remaps fire
// often; "adaptive(x)" wraps x in the cadence decorator.
std::unique_ptr<WearLeveler> make_small(const std::string& name, Rng& rng) {
  const std::string wrapped = "adaptive(";
  if (name.starts_with(wrapped)) {
    const std::string inner =
        name.substr(wrapped.size(), name.size() - wrapped.size() - 1);
    return std::make_unique<AdaptiveWearLeveler>(make_small(inner, rng),
                                                 AdaptivePolicy{});
  }
  WearLevelerParams params;
  params.swap_interval = 5;
  params.tlsr_subregion_lines = 16;
  EnduranceView view(64);
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i] = 100.0 + 7.0 * static_cast<double>(i % 13);
  }
  return make_wear_leveler(name, 64, view, params, rng);
}

const std::vector<std::string>& horizon_levelers() {
  static const std::vector<std::string> kNames = {
      "none",           "startgap",       "tlsr",
      "pcms",           "bwl",            "wawl",
      "twl",            "adaptive(tlsr)", "adaptive(wawl)",
      "adaptive(startgap)"};
  return kNames;
}

// Drives two same-seed copies of `name` over random (address, length)
// runs. `exact` takes every write through on_write. `batched` takes
// writes_until_remap_at(la) writes of a run by commit and the write that
// triggers the remap through on_write, the way the engine slices a BPA
// burst. Halfway through, both shrink their cadence. Adds the writes
// `batched` committed to `committed`.
void drive_horizon_pair(const std::string& name, std::uint64_t seed,
                        std::uint64_t& committed) {
  Rng rng_a(seed);
  Rng rng_b(seed);
  const auto exact = make_small(name, rng_a);
  const auto batched = make_small(name, rng_b);
  Rng pick(seed + 1);
  std::vector<WlPhysWrite> out_a;
  std::vector<WlPhysWrite> out_b;
  const auto expect_same = [&](const char* step) {
    EXPECT_EQ(state_of(*exact), state_of(*batched)) << name << " " << step;
    EXPECT_EQ(state_of(rng_a), state_of(rng_b)) << name << " " << step;
    EXPECT_EQ(exact->overhead_writes(), batched->overhead_writes())
        << name << " " << step;
  };
  for (int run = 0; run < 400 && !::testing::Test::HasFailure(); ++run) {
    if (run == 200) {
      // Counters past the new interval clamp; the horizons must follow.
      exact->set_remap_interval(2);
      batched->set_remap_interval(2);
      expect_same("shrink");
    }
    const LogicalLineAddr la{pick.uniform_u64(exact->logical_lines())};
    std::uint64_t left = 1 + pick.uniform_u64(24);
    while (left > 0) {
      const std::uint64_t take =
          std::min(batched->writes_until_remap_at(la), left);
      // The horizon's writes, one by one: a user write each to the slot
      // translate() names, no migration, no remap, no RNG draw.
      const std::uint64_t epoch = exact->mapping_epoch();
      const std::vector<std::uint8_t> rng_before = state_of(rng_a);
      for (std::uint64_t i = 0; i < take; ++i) {
        out_a.clear();
        exact->on_write(la, rng_a, out_a);
        ASSERT_EQ(out_a.size(), 1u) << name;
        EXPECT_FALSE(out_a[0].is_overhead) << name;
        EXPECT_EQ(out_a[0].working_index, batched->translate(la)) << name;
      }
      EXPECT_EQ(exact->mapping_epoch(), epoch) << name;
      EXPECT_EQ(state_of(rng_a), rng_before) << name;
      const std::uint64_t batched_epoch = batched->mapping_epoch();
      batched->commit_batched_writes_at(la, take);
      EXPECT_EQ(batched->mapping_epoch(), batched_epoch) << name;
      committed += take;
      left -= take;
      expect_same("commit");
      if (left == 0) break;
      out_a.clear();
      out_b.clear();
      exact->on_write(la, rng_a, out_a);
      batched->on_write(la, rng_b, out_b);
      ASSERT_EQ(out_a.size(), out_b.size()) << name;
      for (std::size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].working_index, out_b[i].working_index) << name;
        EXPECT_EQ(out_a[i].is_overhead, out_b[i].is_overhead) << name;
      }
      --left;
      expect_same("on_write");
    }
  }
}

TEST(BatchHorizonTest, PerAddressHorizonMatchesPerWritePath) {
  for (const std::string& name : horizon_levelers()) {
    std::uint64_t committed = 0;
    for (const std::uint64_t seed : {3u, 17u}) {
      drive_horizon_pair(name, seed, committed);
    }
    EXPECT_GT(committed, 0u) << name << " never batched";
  }
}

TEST(BatchHorizonTest, PerAddressHorizonBatchesWhereTheGlobalOneCannot) {
  Rng rng(5);
  for (const std::string name :
       {"tlsr", "wawl", "adaptive(tlsr)", "adaptive(wawl)"}) {
    const auto wl = make_small(name, rng);
    EXPECT_EQ(wl->writes_until_remap(), 0u) << name;
    EXPECT_GT(wl->writes_until_remap_at(LogicalLineAddr{9}), 0u) << name;
  }
}

TEST(BatchHorizonTest, EmptyPerAddressCommitChangesNothing) {
  // A zero commit stands for no write at all: WAWL must not start a fresh
  // line's countdown, and levelers that decline batching must not throw.
  for (const std::string& name : horizon_levelers()) {
    Rng rng(8);
    const auto wl = make_small(name, rng);
    const std::vector<std::uint8_t> before = state_of(*wl);
    wl->commit_batched_writes_at(LogicalLineAddr{21}, 0);
    EXPECT_EQ(state_of(*wl), before) << name;
  }
}

// 64 lines in 8 groups: the low half at endurance 50, the high half at
// 150, so at alpha 1 the normalized strengths are exactly 0.5 and 1.5.
Wawl two_level_wawl(std::uint64_t base_interval) {
  EnduranceView view(64, 50.0);
  std::fill(view.begin() + 32, view.end(), 150.0);
  return Wawl(64, view, /*group_lines=*/8, base_interval, /*alpha=*/1.0);
}

TEST(BatchHorizonTest, WawlFreshLineHorizonIsItsDwellBudget) {
  Wawl wl = two_level_wawl(10);
  ASSERT_EQ(wl.dwell_budget(0), 5u);
  ASSERT_EQ(wl.dwell_budget(63), 15u);
  const LogicalLineAddr weak{0};
  // Never written: the budget its slot would grant, less the swap write.
  EXPECT_EQ(wl.writes_until_remap_at(weak), 4u);
  EXPECT_EQ(wl.writes_until_remap_at(LogicalLineAddr{63}), 14u);
  // The first commit starts the countdown exactly as on_write would.
  wl.commit_batched_writes_at(weak, 3);
  EXPECT_EQ(wl.writes_until_remap_at(weak), 1u);
  wl.commit_batched_writes_at(weak, 1);
  EXPECT_EQ(wl.writes_until_remap_at(weak), 0u);
  Rng rng(2);
  std::vector<WlPhysWrite> batch;
  wl.on_write(weak, rng, batch);  // the dwell expires here
  EXPECT_EQ(wl.writes_until_remap_at(weak),
            wl.dwell_budget(wl.translate(weak)) - 1u);
}

TEST(BatchHorizonTest, WawlBudgetOfOneLeavesNoHorizon) {
  Wawl wl = two_level_wawl(2);  // weak groups: 2 * 0.5 = 1 write of dwell
  ASSERT_EQ(wl.dwell_budget(0), 1u);
  const LogicalLineAddr weak{0};
  EXPECT_EQ(wl.writes_until_remap_at(weak), 0u);
  Rng rng(6);
  std::vector<WlPhysWrite> batch;
  const std::vector<std::uint8_t> rng_before = state_of(rng);
  wl.on_write(weak, rng, batch);  // the very first write moves the line
  EXPECT_NE(state_of(rng), rng_before) << "the swap draws its victim";
  EXPECT_EQ(wl.writes_until_remap_at(weak),
            wl.dwell_budget(wl.translate(weak)) - 1u);
}

TEST(BatchHorizonTest, TlsrHorizonHonoursAnIntervalShrink) {
  // 16 lines in 4 sub-regions of 4: a step every 8 writes into a
  // sub-region, an outer migration every 32.
  Rng rng(4);
  SecurityRefresh wl(16, 8, 4, rng);
  const LogicalLineAddr la{0};
  std::vector<WlPhysWrite> batch;
  EXPECT_EQ(wl.writes_until_remap_at(la), 7u);
  wl.commit_batched_writes_at(la, 7);
  wl.on_write(la, rng, batch);  // write 8: the step fires
  EXPECT_EQ(wl.writes_until_remap_at(la), 7u);
  wl.commit_batched_writes_at(la, 2);  // counters: step 2, outer 10
  // Interval 3, outer quota 12: the step counter clamps to 2, the outer
  // one keeps its 10.
  ASSERT_TRUE(wl.set_remap_interval(3));
  EXPECT_EQ(wl.writes_until_remap_at(la), 0u);
  batch.clear();
  wl.on_write(la, rng, batch);  // step fires; outer at 11
  // The step counter has room for two more writes, the outer quota for
  // none: the outer level bounds the horizon.
  EXPECT_EQ(wl.writes_until_remap_at(la), 0u);
  batch.clear();
  wl.on_write(la, rng, batch);  // the sub-region migrates wholesale
  EXPECT_EQ(batch.size(), 2u * 4u + 1u);
  // `la` now sits in a sub-region no write has touched.
  EXPECT_EQ(wl.writes_until_remap_at(la), 2u);
}

// The fields a permutation leveler saves ahead of its policy state: the
// identity mapping and no overhead writes.
StateWriter identity_prefix(std::uint64_t lines) {
  StateWriter w;
  std::vector<std::uint32_t> fwd(lines);
  std::iota(fwd.begin(), fwd.end(), 0u);
  w.vec_u32(fwd);
  w.u64(0);
  return w;
}

Status load(WearLeveler& wl, const StateWriter& w) {
  StateReader r(w.buffer());
  return wl.load_state(r);
}

TEST(CadenceRestoreTest, CountersAtTheIntervalAreRefused) {
  // A counter at the interval would make writes_until_remap() underflow,
  // and the fast path would then batch through the remap the next write
  // fires. One below it is the last state on_write can leave.
  Rng rng(1);
  for (const std::string name : {"startgap", "pcms", "bwl", "twl"}) {
    const auto wl = make_small(name, rng);
    for (const std::uint64_t since : {4u, 5u}) {
      StateWriter w = identity_prefix(64);
      w.u64(since);
      if (name == "startgap") w.u64(63);  // gap slot
      const Status st = load(*wl, w);
      EXPECT_EQ(st.ok(), since < 5) << name << " since=" << since;
      if (!st.ok()) EXPECT_EQ(st.code(), StatusCode::kCorruption) << name;
    }
    // The refused load left the last good counter, not an underflow.
    EXPECT_EQ(wl->writes_until_remap(), 0u) << name;
  }
}

TEST(CadenceRestoreTest, TlsrStateOutOfRangeIsRefused) {
  // 48 lines in 4 sub-regions of 12 at interval 5: an outer quota of 60.
  struct Tlsr {
    std::vector<std::uint64_t> step{4, 0, 0, 0};
    std::vector<std::uint64_t> outer{59, 0, 0, 0};
    std::vector<std::uint64_t> sweep{11, 0, 0, 0};
    std::vector<std::uint64_t> key{11, 1, 1, 1};
  };
  const auto state = [](const Tlsr& t) {
    StateWriter w = identity_prefix(48);
    w.vec_u64(t.step);
    w.vec_u64(t.outer);
    w.vec_u64(t.sweep);
    w.vec_u64(t.key);
    return w;
  };
  Rng rng(1);
  SecurityRefresh wl(48, 5, 4, rng);
  ASSERT_TRUE(load(wl, state(Tlsr{})).ok());
  std::vector<std::pair<std::string, Tlsr>> bad(5);
  bad[0].first = "step counter at the interval";
  bad[0].second.step[3] = 5;
  bad[1].first = "outer counter at the quota";
  bad[1].second.outer[1] = 60;
  // 12 ^ 8 == 4: without the check refresh_step would swap slot 36 + 12,
  // one past the end of the permutation.
  bad[2].first = "sweep pointer past the sub-region";
  bad[2].second.sweep[3] = 12;
  bad[2].second.key[3] = 8;
  bad[3].first = "zero key";
  bad[3].second.key[2] = 0;
  bad[4].first = "key past the sub-region";
  bad[4].second.key[0] = 12;
  for (const auto& [what, t] : bad) {
    const Status st = load(wl, state(t));
    EXPECT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what;
  }
}

TEST(CadenceRestoreTest, AdaptiveTlsrRestoresAfterACadenceChange) {
  // The counters are checked against the cadence live at capture time,
  // which load_state re-applies before the inner load: a lengthened
  // cadence lets them pass the boot interval, a shrunk one clamps them.
  AdaptivePolicy policy;
  policy.hold_windows = 1;
  const auto make = [&] {
    Rng boot(12);
    return std::make_unique<AdaptiveWearLeveler>(make_small("tlsr", boot),
                                                 policy);
  };
  const auto wl = make();
  Rng rng(13);
  std::vector<WlPhysWrite> batch;
  const LogicalLineAddr la{7};
  const auto restore_matches = [&](const char* when) {
    const auto restored = make();
    StateWriter w;
    wl->save_state(w);
    StateReader r(w.buffer());
    ASSERT_TRUE(restored->load_state(r).ok()) << when;
    EXPECT_EQ(state_of(*restored), state_of(*wl)) << when;
    EXPECT_EQ(restored->writes_until_remap_at(la),
              wl->writes_until_remap_at(la))
        << when;
  };
  wl->on_window(AlarmLevel::kUnderAttack, AttackKind::kSweep);
  ASSERT_EQ(wl->remap_interval(), 10u);
  for (int i = 0; i < 8; ++i) {  // past the boot interval of 5
    batch.clear();
    wl->on_write(la, rng, batch);
  }
  restore_matches("after a lengthen");
  wl->on_window(AlarmLevel::kUnderAttack, AttackKind::kConcentration);
  wl->on_window(AlarmLevel::kUnderAttack, AttackKind::kConcentration);
  ASSERT_EQ(wl->remap_interval(), 3u);  // round(5 / 2)
  for (int i = 0; i < 7; ++i) {
    batch.clear();
    wl->on_write(la, rng, batch);
  }
  restore_matches("after a shrink");
}

TEST(FactoryTest, PaperSchemesListMatchesEvaluation) {
  const auto& schemes = paper_wear_levelers();
  ASSERT_EQ(schemes.size(), 4u);
  EXPECT_EQ(schemes[0], "tlsr");
  EXPECT_EQ(schemes[1], "pcms");
  EXPECT_EQ(schemes[2], "bwl");
  EXPECT_EQ(schemes[3], "wawl");
}

}  // namespace
}  // namespace nvmsec
