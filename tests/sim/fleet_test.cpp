// Fleet runner tests: the determinism contract (jobs / sharding / resume
// cannot change the fleet result), failure-cause classification including
// the truncated-log fallback, aggregate merge/serialize algebra, and the
// fingerprint guard on resumed checkpoints.
#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "obs/event_log.h"
#include "obs/heartbeat.h"
#include "obs/profiler.h"
#include "sim/journal.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace nvmsec {
namespace {

/// Small but non-trivial population: real failures, multiple shards.
FleetSpec small_spec() {
  FleetSpec spec;
  spec.devices = 96;
  spec.seed_start = 7;
  spec.shard_size = 16;
  spec.base.geometry = DeviceGeometry::scaled(256, 16);
  spec.base.endurance.endurance_at_mean = 200;
  spec.base.attack = "uaa";
  spec.base.spare_scheme = "maxwe";
  return spec;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(FleetRunner, ResultIsIdenticalAcrossJobCounts) {
  const FleetSpec spec = small_spec();
  FleetOptions serial;
  serial.jobs = 1;
  const std::string one = fleet_result_json(spec, run_fleet(spec, serial));

  FleetOptions threaded;
  threaded.jobs = 4;
  const std::string four = fleet_result_json(spec, run_fleet(spec, threaded));
  EXPECT_EQ(one, four);
}

TEST(FleetRunner, ShardSizeDoesNotChangePerDeviceTrajectories) {
  // Different shard_size is a different fingerprint (checkpoints are not
  // interchangeable) but per-device stats must match: the exact moments and
  // cause counts are shard-independent even though sketch centroids differ.
  FleetSpec a = small_spec();
  FleetSpec b = small_spec();
  b.shard_size = 32;
  const FleetResult ra = run_fleet(a);
  const FleetResult rb = run_fleet(b);
  EXPECT_EQ(ra.aggregate.devices, rb.aggregate.devices);
  EXPECT_EQ(ra.aggregate.lifetime.mean(), rb.aggregate.lifetime.mean());
  EXPECT_EQ(ra.aggregate.lifetime.min(), rb.aggregate.lifetime.min());
  EXPECT_EQ(ra.aggregate.lifetime.max(), rb.aggregate.lifetime.max());
  EXPECT_EQ(ra.aggregate.failure_causes, rb.aggregate.failure_causes);
  ASSERT_EQ(ra.aggregate.worst.items().size(),
            rb.aggregate.worst.items().size());
  for (std::size_t i = 0; i < ra.aggregate.worst.items().size(); ++i) {
    EXPECT_EQ(ra.aggregate.worst.items()[i].id,
              rb.aggregate.worst.items()[i].id);
  }
}

TEST(FleetRunner, StopResumeProducesByteIdenticalResult) {
  const FleetSpec spec = small_spec();
  const std::string straight = fleet_result_json(spec, run_fleet(spec));

  const std::string ckpt = temp_path("fleet_test_resume.ckpt");
  std::filesystem::remove(ckpt);

  FleetOptions first;
  first.checkpoint_path = ckpt;
  first.stop_after_shards = 2;  // simulated preemption after two shards
  const FleetResult partial = run_fleet(spec, first);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.shards_done, 2u);

  FleetOptions second;
  second.checkpoint_path = ckpt;
  second.resume = true;
  second.jobs = 2;  // resume under a different job count, same bytes
  const FleetResult resumed = run_fleet(spec, second);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(fleet_result_json(spec, resumed), straight);
  std::filesystem::remove(ckpt);
}

TEST(FleetRunner, JournalDoesNotChangeTheResult) {
  // Serializing a shard aggregate canonicalizes its sketches once more,
  // and that can regroup centroids. A journaled campaign folds what it
  // journaled, so an unjournaled one must fold the same record bytes. This
  // population is one where the regrouping moves a quantile.
  FleetSpec spec = small_spec();
  spec.devices = 2000;
  spec.seed_start = 2;
  spec.shard_size = 256;
  const std::string plain = fleet_result_json(spec, run_fleet(spec));

  const std::string ckpt = temp_path("fleet_test_journal_identity.ckpt");
  std::filesystem::remove(ckpt);
  FleetOptions journaled;
  journaled.checkpoint_path = ckpt;
  EXPECT_EQ(fleet_result_json(spec, run_fleet(spec, journaled)), plain);
  std::filesystem::remove(ckpt);
}

TEST(FleetRunner, ResumeWithGapsFoldsInShardOrder) {
  // A journal written by jobs > 1 and then killed can hold shards with gaps
  // between them. Resume folds them in shard order wherever they land:
  // behind the running shards, or after the join when a gap never runs.
  const FleetSpec spec = small_spec();  // 6 shards
  const std::string full_path = temp_path("fleet_test_gaps_full.ckpt");
  const std::string gaps_path = temp_path("fleet_test_gaps.ckpt");
  std::filesystem::remove(full_path);
  FleetOptions full;
  full.checkpoint_path = full_path;
  const std::string straight = fleet_result_json(spec, run_fleet(spec, full));
  Result<std::vector<JournalRecord>> records =
      Journal::replay(full_path, fleet_fingerprint(spec), "population spec");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 6u);

  // Shards 1 and 3 journaled, 0, 2, 4 and 5 not.
  const auto write_gapped_journal = [&] {
    Journal journal;
    ASSERT_TRUE(journal.open(gaps_path, fleet_fingerprint(spec), true).ok());
    for (const JournalRecord& rec : records.value()) {
      if (rec.key == 1 || rec.key == 3) {
        ASSERT_TRUE(journal.append(rec.key, rec.payload).ok());
      }
    }
  };

  for (const std::size_t jobs : {1u, 3u}) {
    write_gapped_journal();
    FleetOptions resume;
    resume.checkpoint_path = gaps_path;
    resume.resume = true;
    resume.jobs = jobs;
    EXPECT_EQ(fleet_result_json(spec, run_fleet(spec, resume)), straight)
        << "jobs " << jobs;
  }

  // Run only shard 0: shards 0 and 1 fold behind it, shard 3 after the
  // join. The result is the records of 0, 1 and 3 merged in that order.
  write_gapped_journal();
  FleetOptions partial;
  partial.checkpoint_path = gaps_path;
  partial.resume = true;
  partial.stop_after_shards = 1;
  const FleetResult got = run_fleet(spec, partial);
  FleetResult expected;
  expected.shards_total = 6;
  for (const JournalRecord& rec : records.value()) {
    if (rec.key > 1 && rec.key != 3) continue;
    FleetAggregate agg;
    StateReader reader(rec.payload);
    ASSERT_TRUE(agg.load_state(reader).ok());
    expected.aggregate.merge(agg);
    ++expected.shards_done;
  }
  expected.aggregate.compress();
  EXPECT_EQ(got.shards_done, 3u);
  EXPECT_EQ(fleet_result_json(spec, got), fleet_result_json(spec, expected));
  std::filesystem::remove(full_path);
  std::filesystem::remove(gaps_path);
}

TEST(FleetRunner, FoldsBeforeTheJoinAreProfiledAsFleetFold) {
  const FleetSpec spec = small_spec();  // 6 shards
  Profiler prof;
  FleetOptions options;
  options.profiler = &prof;
  const FleetResult result = run_fleet(spec, options);
  // At jobs 1 shards land in index order, so each one folds as it lands
  // and the merge after the join only compresses.
  EXPECT_EQ(prof.phase(ProfPhase::kFleetFold).count, result.shards_total);
  EXPECT_EQ(prof.phase(ProfPhase::kFleetMerge).count, 1u);
  EXPECT_EQ(prof_phase_name(ProfPhase::kFleetFold), "fleet.fold");
  EXPECT_EQ(prof_phase_parent(ProfPhase::kFleetFold), ProfPhase::kFleetShard);
}

TEST(FleetRunner, ResumeRejectsForeignCheckpoint) {
  const std::string ckpt = temp_path("fleet_test_foreign.ckpt");
  std::filesystem::remove(ckpt);

  FleetSpec spec = small_spec();
  FleetOptions write;
  write.checkpoint_path = ckpt;
  write.stop_after_shards = 1;
  (void)run_fleet(spec, write);

  FleetSpec other = spec;
  other.seed_start = 1234;  // different population
  FleetOptions resume;
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  EXPECT_THROW((void)run_fleet(other, resume), std::runtime_error);
  std::filesystem::remove(ckpt);
}

TEST(FleetRunner, ResumeRefusesHostileCountInCrcValidRecord) {
  const std::string ckpt = temp_path("fleet_test_hostile.ckpt");
  std::filesystem::remove(ckpt);
  const FleetSpec spec = small_spec();

  // A well-framed shard record whose first sketch declares 2^62 centroids:
  // the CRC verifies, so only the loader's own bound stands between the
  // bytes and a huge allocation.
  StateWriter w;
  RunningStats().save_state(w);
  w.u32(128);  // compression
  w.u64(1);    // count
  w.f64(0.5);  // min
  w.f64(0.5);  // max
  w.u64(std::uint64_t{1} << 62);
  {
    Journal journal;
    ASSERT_TRUE(journal.open(ckpt, fleet_fingerprint(spec), true).ok());
    ASSERT_TRUE(journal.append(0, w.buffer()).ok());
  }

  FleetOptions resume;
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  try {
    (void)run_fleet(spec, resume);
    ADD_FAILURE() << "resume accepted a hostile shard record";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("corruption: ", 0), 0u) << what;
    EXPECT_NE(what.find("exceeds remaining buffer"), std::string::npos)
        << what;
  }
  std::filesystem::remove(ckpt);
}

TEST(FleetRunner, AttackMixIsShardingIndependent) {
  FleetSpec spec;
  spec.devices = 100;
  spec.seed_start = 3;
  spec.attack_mix = {{"uaa", 0.5}, {"zipf", 0.5}};

  // The pick must depend only on (seed_start, index).
  std::size_t uaa = 0;
  for (std::uint64_t i = 0; i < spec.devices; ++i) {
    const std::string& a = fleet_device_attack(spec, i);
    EXPECT_TRUE(a == "uaa" || a == "zipf");
    uaa += a == "uaa" ? 1 : 0;
  }
  EXPECT_GT(uaa, 25u);
  EXPECT_LT(uaa, 75u);

  FleetSpec reshard = spec;
  reshard.shard_size = 7;
  for (std::uint64_t i = 0; i < spec.devices; ++i) {
    EXPECT_EQ(fleet_device_attack(spec, i), fleet_device_attack(reshard, i));
  }
}

TEST(FleetRunner, RejectsBadSpecs) {
  FleetSpec empty;
  empty.devices = 0;
  EXPECT_THROW((void)run_fleet(empty), std::invalid_argument);

  FleetSpec bad_mix = small_spec();
  bad_mix.attack_mix = {{"uaa", -1.0}};
  EXPECT_THROW((void)run_fleet(bad_mix), std::invalid_argument);

  FleetSpec no_shard = small_spec();
  no_shard.shard_size = 0;
  EXPECT_THROW((void)run_fleet(no_shard), std::invalid_argument);
}

TEST(FleetRunner, EventModeRefusesANonStationaryMixBeforeAnyDevice) {
  // bpa is a known attack, but the event engine takes only stationary
  // ones: the spec check refuses it before a single shard runs, so no
  // uaa shard finishes and the heartbeat stays silent.
  FleetSpec spec = small_spec();
  spec.devices = 16;
  spec.shard_size = 1;
  spec.attack_mix = {{"uaa", 1.0}, {"bpa", 1.0}};
  std::ostringstream out;
  HeartbeatSink heartbeat(out, 1);
  FleetOptions options;
  options.heartbeat = &heartbeat;
  EXPECT_THROW((void)run_fleet(spec, options), std::invalid_argument);
  EXPECT_EQ(heartbeat.lines_written(), 0u);
}

TEST(FleetFingerprint, CoversTrajectoryShapingFields) {
  const FleetSpec base = small_spec();
  const std::uint64_t fp = fleet_fingerprint(base);
  EXPECT_EQ(fp, fleet_fingerprint(base));  // stable

  FleetSpec seeds = base;
  seeds.seed_start = 99;
  EXPECT_NE(fleet_fingerprint(seeds), fp);

  FleetSpec count = base;
  count.devices = 97;
  EXPECT_NE(fleet_fingerprint(count), fp);

  FleetSpec shards = base;
  shards.shard_size = 32;
  EXPECT_NE(fleet_fingerprint(shards), fp);

  FleetSpec config = base;
  config.base.spare_scheme = "pcd";
  EXPECT_NE(fleet_fingerprint(config), fp);

  FleetSpec mix = base;
  mix.attack_mix = {{"uaa", 1.0}};
  EXPECT_NE(fleet_fingerprint(mix), fp);
}

TEST(ClassifyFailureCause, PrefersEndOfLifeEvent) {
  LifetimeResult result;
  result.failed = true;
  result.failure_reason = "whatever the result says";
  const std::string log =
      R"({"v":1,"type":"write","line":3})"
      "\n"
      R"({"v":1,"type":"end_of_life","cause":"all_backed_lines_worn"})"
      "\n";
  bool truncated = true;
  EXPECT_EQ(classify_failure_cause(log, result, &truncated),
            kCauseAllBackedLinesWorn);
  EXPECT_FALSE(truncated);
}

TEST(ClassifyFailureCause, TruncatedLogFallsBackToResult) {
  LifetimeResult result;
  result.failed = true;
  result.failure_reason = "unreplaceable wear-out at line 17";
  // Cap hit: the tail (including end_of_life) was dropped.
  const std::string log =
      R"({"v":1,"type":"write","line":3})"
      "\n"
      R"({"v":1,"type":"log_truncated","dropped":120})"
      "\n";
  bool truncated = false;
  EXPECT_EQ(classify_failure_cause(log, result, &truncated),
            kCauseUnreplaceableWearOut);
  EXPECT_TRUE(truncated);
}

TEST(ClassifyFailureCause, FallbackClassification) {
  LifetimeResult worn;
  worn.failed = true;
  worn.failure_reason = "all backed lines worn out";
  EXPECT_EQ(classify_failure_cause("", worn), kCauseAllBackedLinesWorn);

  LifetimeResult capped;
  capped.failed = false;
  EXPECT_EQ(classify_failure_cause("", capped), kCauseWriteCapReached);

  LifetimeResult odd;
  odd.failed = true;
  odd.failure_reason = "some novel reason";
  EXPECT_EQ(classify_failure_cause("", odd), kCauseUnknown);

  LifetimeResult garbage = odd;
  EXPECT_EQ(classify_failure_cause("{not json", garbage), kCauseUnknown);
}

TEST(ClassifyFailureCause, ResultAloneAgreesWithStreamingLog) {
  // Fleet devices run without an event log and are classified from their
  // result alone. That must be the cause their full log would give, for
  // every engine and every way a run ends.
  const auto expect_agrees = [](ExperimentConfig c, std::uint64_t cap) {
    std::ostringstream sink;
    LifetimeResult r;
    {
      EventLog log(sink, cap);
      c.observer.events = &log;
      r = run_experiment(c);
      log.finalize();
    }
    bool truncated = false;
    EXPECT_EQ(classify_failure_cause(sink.str(), r, &truncated),
              classify_failure_cause("", r));
    EXPECT_EQ(truncated, cap < EventLog::kDefaultMaxEvents);
    return r;
  };
  for (const SimulationMode mode :
       {SimulationMode::kUniformEvent, SimulationMode::kStochastic,
        SimulationMode::kBitLevel}) {
    ExperimentConfig c = scaled_stochastic_config(256, 16, 200.0);
    c.mode = mode;
    for (const char* spare :
         {"none", "pcd", "ps", "ps-worst", "freep", "maxwe",
          "maxwe-identity", "maxwe-random", "maxwe-random-identity"}) {
      SCOPED_TRACE(std::string(simulation_mode_name(mode)) + " " + spare);
      c.spare_scheme = spare;
      // Unreplaceable wear-out, with the whole log and with a log capped
      // after run_start, so that its end_of_life event is dropped.
      const LifetimeResult worn = expect_agrees(c, EventLog::kDefaultMaxEvents);
      EXPECT_TRUE(worn.failed);
      expect_agrees(c, 1);
    }
    if (mode != SimulationMode::kUniformEvent) {
      SCOPED_TRACE(std::string(simulation_mode_name(mode)) + " write cap");
      c.spare_scheme = "maxwe";
      c.max_user_writes = 1000;
      EXPECT_FALSE(expect_agrees(c, EventLog::kDefaultMaxEvents).failed);
    }
  }
}

TEST(ExemplarSet, KeepsTrueExtremesAndMerges) {
  ExemplarSet worst(3, /*keep_lowest=*/true);
  ExemplarSet best(3, /*keep_lowest=*/false);
  for (std::uint64_t id = 0; id < 100; ++id) {
    const double v = static_cast<double>((id * 37) % 100);
    worst.add(id, v);
    best.add(id, v);
  }
  ASSERT_EQ(worst.items().size(), 3u);
  EXPECT_EQ(worst.items()[0].value, 0.0);
  EXPECT_EQ(worst.items()[1].value, 1.0);
  EXPECT_EQ(worst.items()[2].value, 2.0);
  EXPECT_EQ(best.items()[0].value, 99.0);

  // Merge of two halves equals the whole.
  ExemplarSet left(3, true), right(3, true);
  for (std::uint64_t id = 0; id < 50; ++id) {
    left.add(id, static_cast<double>((id * 37) % 100));
  }
  for (std::uint64_t id = 50; id < 100; ++id) {
    right.add(id, static_cast<double>((id * 37) % 100));
  }
  left.merge(right);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(left.items()[i].id, worst.items()[i].id);
    EXPECT_EQ(left.items()[i].value, worst.items()[i].value);
  }

  EXPECT_THROW(left.merge(best), std::invalid_argument);
}

TEST(ExemplarSet, TiesBreakOnDeviceId) {
  ExemplarSet s(2, true);
  s.add(9, 1.0);
  s.add(4, 1.0);
  s.add(7, 1.0);
  ASSERT_EQ(s.items().size(), 2u);
  EXPECT_EQ(s.items()[0].id, 4u);
  EXPECT_EQ(s.items()[1].id, 7u);
}

TEST(ExemplarSet, LoadRejectsHostileItemCount) {
  constexpr std::uint64_t kHostileCount = std::uint64_t{1} << 62;
  StateWriter w;
  w.u64(kHostileCount);  // capacity, so the item count passes that check
  w.boolean(true);
  w.u64(kHostileCount);
  w.f64(0.5);
  w.u64(1);
  ExemplarSet loaded(1, true);
  StateReader r(w.buffer());
  const Status st = loaded.load_state(r);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.to_string();
}

TEST(FleetAggregate, SerializeThenMergeMatchesDirectMerge) {
  const auto fill = [](FleetAggregate& agg, std::uint64_t base) {
    for (std::uint64_t d = 0; d < 40; ++d) {
      LifetimeResult r;
      r.failed = true;
      r.normalized = 0.5 + 0.01 * static_cast<double>(d);
      r.user_writes = 1000 + d;
      r.wear_gini = 0.1;
      agg.add(base + d, r,
              std::string(d % 2 ? kCauseAllBackedLinesWorn
                                : kCauseUnreplaceableWearOut),
              /*log_truncated=*/d % 7 == 0);
    }
    agg.compress();
  };

  FleetAggregate a, b;
  fill(a, 0);
  fill(b, 1000);

  FleetAggregate direct = a;
  direct.merge(b);

  const auto round_trip = [](const FleetAggregate& agg) {
    StateWriter w;
    agg.save_state(w);
    FleetAggregate out;
    StateReader r(w.buffer());
    EXPECT_TRUE(out.load_state(r).ok());
    EXPECT_TRUE(r.exhausted());
    return out;
  };
  FleetAggregate reloaded = round_trip(a);
  reloaded.merge(round_trip(b));

  StateWriter w1, w2;
  direct.save_state(w1);
  reloaded.save_state(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(direct.devices, 80u);
  EXPECT_EQ(direct.truncated_logs, 12u);
  EXPECT_EQ(direct.failure_causes.at(std::string(kCauseAllBackedLinesWorn)),
            40u);
}

TEST(FleetResultJson, ShapeAndDeterminism) {
  FleetSpec spec = small_spec();
  spec.devices = 32;
  const FleetResult result = run_fleet(spec);
  const std::string json = fleet_result_json(spec, result);
  EXPECT_EQ(json, fleet_result_json(spec, result));
  EXPECT_EQ(json.back(), '\n');

  // Spot-check the documented top-level shape.
  EXPECT_NE(json.find("\"type\":\"fleet_result\""), std::string::npos);
  EXPECT_NE(json.find("\"devices\":32"), std::string::npos);
  EXPECT_NE(json.find("\"lifetime\":"), std::string::npos);
  EXPECT_NE(json.find("\"failure_causes\":"), std::string::npos);
  EXPECT_NE(json.find("\"worst\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(FleetRunner, WearGiniIsTrackedForEventEngine) {
  const FleetSpec spec = small_spec();
  const FleetResult result = run_fleet(spec);
  // The event engine reports per-line wear, so every device contributes.
  EXPECT_EQ(result.aggregate.wear_gini.count(), spec.devices);
  EXPECT_GE(result.aggregate.wear_gini.min(), 0.0);
  EXPECT_LE(result.aggregate.wear_gini.max(), 1.0);
}


TEST(FleetSamplingContract, WeakestContractAcrossMixWins) {
  FleetSpec spec = small_spec();
  EXPECT_EQ(fleet_sampling_contract(spec), BatchContract::kBitIdentical);
  spec.base.attack = "hotspot";
  EXPECT_EQ(fleet_sampling_contract(spec), BatchContract::kMultisetExact);
  spec.base.attack = "zipf";
  EXPECT_EQ(fleet_sampling_contract(spec),
            BatchContract::kDistributionEquivalent);
  // A mix overrides base.attack; the weakest member's contract governs.
  spec.base.attack = "uaa";
  spec.attack_mix = {{"uaa", 0.9}, {"bpa", 0.1}};
  EXPECT_EQ(fleet_sampling_contract(spec), BatchContract::kBitIdentical);
  spec.attack_mix.push_back({"zipf", 0.1});
  EXPECT_EQ(fleet_sampling_contract(spec),
            BatchContract::kDistributionEquivalent);
}

TEST(FleetFingerprint, FastpathFoldsInOnlyForStochasticSampling) {
  // Bit-identical populations interchange checkpoints across fastpath
  // modes (same trajectories), so the flag must NOT shift the fingerprint.
  FleetSpec uaa = small_spec();
  uaa.base.mode = SimulationMode::kStochastic;
  FleetSpec uaa_off = uaa;
  uaa_off.base.fastpath = false;
  EXPECT_EQ(fleet_fingerprint(uaa), fleet_fingerprint(uaa_off));

  // Distribution-equivalent stochastic populations must refuse cross-mode
  // resume: the flag IS part of the fingerprint.
  FleetSpec zipf = small_spec();
  zipf.base.attack = "zipf";
  zipf.base.mode = SimulationMode::kStochastic;
  FleetSpec zipf_off = zipf;
  zipf_off.base.fastpath = false;
  EXPECT_NE(fleet_fingerprint(zipf), fleet_fingerprint(zipf_off));

  // In event mode there is no sampling at all: flag irrelevant again.
  FleetSpec zipf_event = zipf;
  zipf_event.base.mode = SimulationMode::kUniformEvent;
  FleetSpec zipf_event_off = zipf_event;
  zipf_event_off.base.fastpath = false;
  EXPECT_EQ(fleet_fingerprint(zipf_event), fleet_fingerprint(zipf_event_off));
}

TEST(FleetResultJson, SpecCarriesFastpathAndSamplingContract) {
  FleetSpec spec = small_spec();
  FleetOptions options;
  const std::string json = fleet_result_json(spec, run_fleet(spec, options));
  EXPECT_NE(json.find("\"fastpath\":true"), std::string::npos);
  EXPECT_NE(json.find("\"sampling_contract\":\"bit_identical\""),
            std::string::npos);
  spec.base.attack = "zipf";
  spec.base.fastpath = false;
  const std::string json_zipf =
      fleet_result_json(spec, run_fleet(spec, options));
  EXPECT_NE(json_zipf.find("\"fastpath\":false"), std::string::npos);
  EXPECT_NE(
      json_zipf.find("\"sampling_contract\":\"distribution_equivalent\""),
      std::string::npos);
}

}  // namespace
}  // namespace nvmsec
