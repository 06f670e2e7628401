// Profiler: re-entrant scopes, deterministic merge, the zero-cost
// detached contract, JSON schema round-trip, and the no-feedback guarantee
// (attaching a profiler cannot change simulation results).
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/profile_report.h"
#include "sim/fleet.h"
#include "sim/parallel.h"

namespace nvmsec {
namespace {

void spin(ScopedProfPhase&&) {}

TEST(ProfilerTest, ScopedPhaseRecordsOneSpan) {
  Profiler prof;
  {
    const ScopedProfPhase span(&prof, ProfPhase::kEngineRun);
  }
  const ProfPhaseStats& s = prof.phase(ProfPhase::kEngineRun);
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.max_ns, s.min_ns);
  EXPECT_EQ(prof.phase(ProfPhase::kEventRun).count, 0u);
}

TEST(ProfilerTest, ReentrantScopesCountOnlyTheOutermost) {
  Profiler prof;
  {
    const ScopedProfPhase outer(&prof, ProfPhase::kEngineRescue);
    {
      const ScopedProfPhase inner(&prof, ProfPhase::kEngineRescue);
      {
        const ScopedProfPhase deeper(&prof, ProfPhase::kEngineRescue);
      }
    }
  }
  // One recorded span: the inner activations folded into the outer one
  // instead of double-counting the same wall time.
  EXPECT_EQ(prof.phase(ProfPhase::kEngineRescue).count, 1u);

  // After full unwind the phase can be re-entered as outermost again.
  {
    const ScopedProfPhase again(&prof, ProfPhase::kEngineRescue);
  }
  EXPECT_EQ(prof.phase(ProfPhase::kEngineRescue).count, 2u);
}

TEST(ProfilerTest, NestingDistinctPhasesRecordsBoth) {
  Profiler prof;
  {
    const ScopedProfPhase run(&prof, ProfPhase::kEngineRun);
    {
      const ScopedProfPhase draw(&prof, ProfPhase::kEngineCountsDraw);
    }
    {
      const ScopedProfPhase draw(&prof, ProfPhase::kEngineCountsDraw);
    }
  }
  EXPECT_EQ(prof.phase(ProfPhase::kEngineRun).count, 1u);
  EXPECT_EQ(prof.phase(ProfPhase::kEngineCountsDraw).count, 2u);
  // The parent's inclusive total covers its children.
  EXPECT_GE(prof.phase(ProfPhase::kEngineRun).total_ns,
            prof.phase(ProfPhase::kEngineCountsDraw).total_ns);
}

TEST(ProfilerTest, NullProfilerScopesAreInertAndSmall) {
  // Compile-time: the scope must stay register-friendly (also asserted in
  // the header, repeated here so the contract shows up in the test run).
  static_assert(sizeof(ScopedProfPhase) <= 3 * sizeof(void*),
                "detached scope grew beyond three machine words");
  // Runtime: a null profiler means no clock reads and no stores — nothing
  // to observe, so just prove the path is safe to cross a million times.
  for (int i = 0; i < 1000000; ++i) {
    spin(ScopedProfPhase(nullptr, ProfPhase::kEngineBatchWrite));
  }
  SUCCEED();
}

TEST(ProfilerTest, RecordAndCountersAccumulate) {
  Profiler prof;
  prof.record(ProfPhase::kEngineBuffer, 100, 2);
  prof.record(ProfPhase::kEngineBuffer, 50, 1);
  const ProfPhaseStats& s = prof.phase(ProfPhase::kEngineBuffer);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.total_ns, 150u);
  EXPECT_EQ(s.min_ns, 50u);
  EXPECT_EQ(s.max_ns, 100u);

  prof.add(ProfCounter::kBufferHit, 5);
  prof.add(ProfCounter::kBufferHit);
  EXPECT_EQ(prof.counter(ProfCounter::kBufferHit), 6u);
  EXPECT_EQ(prof.counter(ProfCounter::kBufferMiss), 0u);
}

Profiler make_profiler(std::uint64_t ns, std::uint64_t writes) {
  Profiler p;
  p.record(ProfPhase::kEngineRun, ns);
  p.record(ProfPhase::kEngineCountsDraw, ns / 2);
  p.add(ProfCounter::kBatchWrites, writes);
  p.set_utilization({WorkerUtilization{ns, 1}}, ns);
  return p;
}

void expect_same(const Profiler& a, const Profiler& b) {
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    const auto phase = static_cast<ProfPhase>(i);
    EXPECT_EQ(a.phase(phase).count, b.phase(phase).count);
    EXPECT_EQ(a.phase(phase).total_ns, b.phase(phase).total_ns);
    EXPECT_EQ(a.phase(phase).min_ns, b.phase(phase).min_ns);
    EXPECT_EQ(a.phase(phase).max_ns, b.phase(phase).max_ns);
  }
  for (std::size_t i = 0; i < kProfCounterCount; ++i) {
    const auto counter = static_cast<ProfCounter>(i);
    EXPECT_EQ(a.counter(counter), b.counter(counter));
  }
  EXPECT_EQ(a.workers().size(), b.workers().size());
  EXPECT_EQ(a.utilization_wall_ns(), b.utilization_wall_ns());
}

TEST(ProfilerTest, MergeIsAssociative) {
  // (a + b) + c == a + (b + c): the parallel runners' fixed-order merge
  // does not depend on how the merges associate.
  Profiler left = make_profiler(100, 1);
  left.merge(make_profiler(200, 2));
  left.merge(make_profiler(400, 4));

  Profiler bc = make_profiler(200, 2);
  bc.merge(make_profiler(400, 4));
  Profiler right = make_profiler(100, 1);
  right.merge(bc);

  expect_same(left, right);
  EXPECT_EQ(left.phase(ProfPhase::kEngineRun).count, 3u);
  EXPECT_EQ(left.phase(ProfPhase::kEngineRun).total_ns, 700u);
  EXPECT_EQ(left.phase(ProfPhase::kEngineRun).min_ns, 100u);
  EXPECT_EQ(left.phase(ProfPhase::kEngineRun).max_ns, 400u);
  EXPECT_EQ(left.counter(ProfCounter::kBatchWrites), 7u);
  EXPECT_EQ(left.workers().size(), 3u);
}

TEST(ProfilerTest, MergeOfEmptyIsIdentity) {
  Profiler a = make_profiler(123, 9);
  const Profiler empty;
  Profiler merged = make_profiler(123, 9);
  merged.merge(empty);
  expect_same(a, merged);
}

TEST(ProfilerTest, AttributedRootSkipsCoveredPhases) {
  Profiler prof;
  prof.record(ProfPhase::kEngineRun, 1000);
  prof.record(ProfPhase::kEngineCountsDraw, 400);  // covered by engine.run
  // experiment.setup's static ancestors (fleet.device, fleet.shard) are
  // unobserved here, so it attributes at the root.
  prof.record(ProfPhase::kExperimentSetup, 50);
  EXPECT_EQ(prof.attributed_root_ns(), 1050u);

  // Once fleet.shard is observed it covers both (via fleet.device, itself
  // unobserved but on the chain).
  prof.record(ProfPhase::kFleetShard, 5000);
  EXPECT_EQ(prof.attributed_root_ns(), 5000u);
}

TEST(ProfilerTest, JsonRoundTripsThroughProfileReport) {
  Profiler prof;
  prof.record(ProfPhase::kEngineRun, 1000);
  prof.record(ProfPhase::kEngineCountsDraw, 400, 2);
  prof.record(ProfPhase::kExperimentSetup, 50);
  prof.add(ProfCounter::kBatchRuns, 2);
  prof.add(ProfCounter::kBatchWrites, 10);
  prof.set_utilization({WorkerUtilization{700, 3}, WorkerUtilization{300, 1}},
                       1200);

  const ProfileDoc doc = parse_profile(prof.to_json(2000));
  EXPECT_EQ(doc.version, 1);
  EXPECT_EQ(doc.wall_ns, 2000u);
  ASSERT_EQ(doc.phases.size(), 3u);
  // File order is enum order.
  EXPECT_EQ(doc.phases[0].name, "experiment.setup");
  EXPECT_EQ(doc.phases[1].name, "engine.run");
  EXPECT_EQ(doc.phases[2].name, "engine.counts.draw");
  EXPECT_EQ(doc.phases[2].parent, "engine.run");
  EXPECT_EQ(doc.phases[2].count, 2u);
  EXPECT_EQ(doc.phases[2].total_ns, 400u);
  EXPECT_EQ(doc.counter("batch.writes"), 10u);
  EXPECT_EQ(doc.counter("batch.runs"), 2u);
  EXPECT_EQ(doc.counter("buffer.hit"), 0u);  // omitted when zero
  ASSERT_EQ(doc.workers.size(), 2u);
  EXPECT_EQ(doc.workers[0].busy_ns, 700u);
  EXPECT_EQ(doc.utilization_wall_ns, 1200u);

  // The renderer-side attribution agrees with the profiler's own gate
  // numerator: engine.run + experiment.setup, not the covered draw.
  EXPECT_EQ(doc.attributed_ns(), prof.attributed_root_ns());
  EXPECT_EQ(doc.attributed_ns(), 1050u);
  // engine.counts.draw hangs off engine.run in the rendered hierarchy.
  EXPECT_EQ(doc.observed_parent(2), 1u);
  EXPECT_EQ(doc.observed_parent(1), ProfileDoc::npos);
}

TEST(ProfilerTest, PhaseTableIsSelfConsistent) {
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    const auto phase = static_cast<ProfPhase>(i);
    EXPECT_FALSE(prof_phase_name(phase).empty());
    // Parent chains terminate at the root (no cycles).
    ProfPhase parent = prof_phase_parent(phase);
    std::size_t hops = 0;
    while (parent != ProfPhase::kCount) {
      parent = prof_phase_parent(parent);
      ASSERT_LT(++hops, kProfPhaseCount);
    }
  }
  for (std::size_t i = 0; i < kProfCounterCount; ++i) {
    EXPECT_FALSE(prof_counter_name(static_cast<ProfCounter>(i)).empty());
  }
}

ExperimentConfig small_stochastic() {
  ExperimentConfig c;
  c.geometry = DeviceGeometry::scaled(256, 16);
  c.endurance.endurance_at_mean = 200;
  c.mode = SimulationMode::kStochastic;
  c.attack = "zipf";
  c.wear_leveler = "tlsr";
  c.spare_scheme = "maxwe";
  c.detect = true;
  c.detector.window_writes = 4096;
  return c;
}

void expect_identical(const LifetimeResult& a, const LifetimeResult& b) {
  EXPECT_DOUBLE_EQ(a.user_writes, b.user_writes);
  EXPECT_EQ(a.overhead_writes, b.overhead_writes);
  EXPECT_EQ(a.device_writes, b.device_writes);
  EXPECT_DOUBLE_EQ(a.normalized, b.normalized);
  EXPECT_EQ(a.line_deaths, b.line_deaths);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.alarms_raised, b.alarms_raised);
}

TEST(ProfilerTest, AttachingProfilerDoesNotChangeResults) {
  const ExperimentConfig plain = small_stochastic();
  ExperimentConfig profiled = small_stochastic();
  Profiler prof;
  profiled.observer.profiler = &prof;

  const LifetimeResult a = run_experiment(plain);
  const LifetimeResult b = run_experiment(profiled);
  expect_identical(a, b);

  // And the profiler actually saw the run: the engine span plus the hot
  // counters populated.
  EXPECT_EQ(prof.phase(ProfPhase::kEngineRun).count, 1u);
  EXPECT_GT(prof.phase(ProfPhase::kExperimentSetup).count, 0u);
  EXPECT_GT(prof.counter(ProfCounter::kCountsWrites) +
                prof.counter(ProfCounter::kBatchWrites) +
                prof.counter(ProfCounter::kPerWriteFallback),
            0u);
  EXPECT_GT(prof.attributed_root_ns(), 0u);
}

TEST(ProfilerTest, ParallelSweepMergesPerRunProfilers) {
  std::vector<ExperimentConfig> configs(3, small_stochastic());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].seed = 7 + i;
  }

  Profiler prof;
  ParallelOptions options;
  options.jobs = 3;
  options.profiler = &prof;
  const std::vector<LifetimeResult> with_prof =
      run_experiments(configs, options);

  ParallelOptions bare;
  bare.jobs = 3;
  const std::vector<LifetimeResult> without =
      run_experiments(configs, bare);
  ASSERT_EQ(with_prof.size(), without.size());
  for (std::size_t i = 0; i < with_prof.size(); ++i) {
    expect_identical(with_prof[i], without[i]);
  }

  // One engine span per run landed in the merged profiler, and the pool
  // utilization section covers jobs drivers (workers + calling thread).
  EXPECT_EQ(prof.phase(ProfPhase::kEngineRun).count, configs.size());
  EXPECT_EQ(prof.workers().size(), 3u);
  EXPECT_GT(prof.utilization_wall_ns(), 0u);
}

TEST(ProfilerTest, FleetCampaignProfilesShardsAndDevices) {
  FleetSpec spec;
  spec.devices = 12;
  spec.shard_size = 4;
  spec.base.geometry = DeviceGeometry::scaled(256, 16);
  spec.base.endurance.endurance_at_mean = 100;
  spec.base.spare_scheme = "maxwe";

  FleetOptions plain;
  plain.jobs = 2;
  const FleetResult base = run_fleet(spec, plain);

  Profiler prof;
  FleetOptions profiled;
  profiled.jobs = 2;
  profiled.profiler = &prof;
  const FleetResult with_prof = run_fleet(spec, profiled);

  // The deterministic fleet JSON is byte-identical either way.
  EXPECT_EQ(fleet_result_json(spec, base),
            fleet_result_json(spec, with_prof));

  EXPECT_EQ(prof.phase(ProfPhase::kFleetShard).count, 3u);
  EXPECT_EQ(prof.phase(ProfPhase::kFleetDevice).count, spec.devices);
  EXPECT_EQ(prof.phase(ProfPhase::kFleetMerge).count, 1u);
  EXPECT_EQ(prof.workers().size(), 2u);
}

}  // namespace
}  // namespace nvmsec
