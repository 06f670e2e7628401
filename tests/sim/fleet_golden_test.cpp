// Golden digests of the fleet runner's result.
//
// FleetRunner's tests compare runs with each other: jobs 1 against jobs 4,
// a resumed campaign against a straight one. They cannot see a change that
// moves every run the same way — a new merge schedule that regroups the
// quantile sketches, say. This test pins the bytes instead: each cell is a
// population spec reduced to one 64-bit FNV-1a digest of its
// fleet_result_json, and every way of running it must reproduce that
// digest:
//
//   - at jobs 1 and jobs 4;
//   - with a journal, without one, and with a heartbeat attached;
//   - stopped after a few shards (stop_after_shards), then resumed from the
//     journal.
//
// The cells are three event-engine uaa:zipf:hotspot populations, one
// stochastic bpa/startgap population (run-length batches under a wear
// leveler) and one zipf count-vector population (multinomial chunks).
// Shards are small, so every cell folds tens of shard aggregates.
//
// Re-pinning a cell is a contract change: say which cells moved and why.
// On any mismatch the test prints the freshly computed rows in the table's
// own format.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/heartbeat.h"
#include "sim/fleet.h"

namespace nvmsec {
namespace {

struct Golden {
  const char* cell;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"event_mix_s1", 0x85d0a21faba405b5ULL},
    {"event_mix_s2", 0x4caa8468699d14f4ULL},
    {"event_mix_s3", 0x94ae618807b106cdULL},
    {"stochastic_bpa_startgap", 0x1154c6d64f251c17ULL},
    {"stochastic_zipf_counts", 0x4bdaca627a61e3bdULL},
};
// clang-format on

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every cell, keyed by a name that is also safe in a file name.
std::map<std::string, FleetSpec> cells() {
  std::map<std::string, FleetSpec> out;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    FleetSpec spec;
    spec.devices = 1500;
    spec.seed_start = 1 + (seed - 1) * 100000;
    spec.shard_size = 48;
    spec.base.geometry = DeviceGeometry::scaled(256, 16);
    spec.base.endurance.endurance_at_mean = 200;
    spec.base.spare_scheme = "maxwe";
    spec.base.mode = SimulationMode::kUniformEvent;
    spec.attack_mix = {{"uaa", 1.0}, {"zipf", 1.0}, {"hotspot", 1.0}};
    out.emplace("event_mix_s" + std::to_string(seed), spec);
  }
  {
    FleetSpec spec;
    spec.devices = 96;
    spec.seed_start = 11;
    spec.shard_size = 8;
    spec.base.geometry = DeviceGeometry::scaled(256, 16);
    spec.base.endurance.endurance_at_mean = 200;
    spec.base.spare_scheme = "maxwe";
    spec.base.mode = SimulationMode::kStochastic;
    spec.base.attack = "bpa";
    spec.base.bpa_burst = 64;
    spec.base.wear_leveler = "startgap";
    out.emplace("stochastic_bpa_startgap", spec);
  }
  {
    FleetSpec spec;
    spec.devices = 96;
    spec.seed_start = 21;
    spec.shard_size = 8;
    spec.base.geometry = DeviceGeometry::scaled(256, 16);
    spec.base.endurance.endurance_at_mean = 200;
    spec.base.spare_scheme = "maxwe";
    spec.base.mode = SimulationMode::kStochastic;
    spec.base.attack = "zipf";
    out.emplace("stochastic_zipf_counts", spec);
  }
  return out;
}

enum class Variant { kJournal, kNoJournal, kHeartbeat, kStopThenResume };

std::string journal_path(const std::string& cell, Variant variant,
                         std::size_t jobs) {
  return (std::filesystem::temp_directory_path() /
          ("fleet_golden_" + cell + "_v" +
           std::to_string(static_cast<int>(variant)) + "_j" +
           std::to_string(jobs) + ".journal"))
      .string();
}

/// Runs `spec` the `variant` way at `jobs` and digests the result JSON.
std::uint64_t run_variant(const std::string& cell, const FleetSpec& spec,
                          Variant variant, std::size_t jobs) {
  FleetOptions options;
  options.jobs = jobs;
  const std::string journal = journal_path(cell, variant, jobs);
  std::filesystem::remove(journal);
  std::ostringstream heartbeat_out;
  HeartbeatSink heartbeat(heartbeat_out, 100);
  FleetResult result;
  switch (variant) {
    case Variant::kJournal:
      options.checkpoint_path = journal;
      result = run_fleet(spec, options);
      break;
    case Variant::kNoJournal:
      result = run_fleet(spec, options);
      break;
    case Variant::kHeartbeat:
      options.heartbeat = &heartbeat;
      result = run_fleet(spec, options);
      EXPECT_GT(heartbeat.lines_written(), 0u) << cell;
      break;
    case Variant::kStopThenResume: {
      options.checkpoint_path = journal;
      // Stop after a third of the shards: the resume then starts with done
      // shards at the front and runs everything after them.
      const std::uint64_t shards =
          (spec.devices + spec.shard_size - 1) / spec.shard_size;
      options.stop_after_shards = shards / 3;
      const FleetResult partial = run_fleet(spec, options);
      EXPECT_FALSE(partial.complete()) << cell;
      options.stop_after_shards = 0;
      options.resume = true;
      result = run_fleet(spec, options);
      break;
    }
  }
  std::filesystem::remove(journal);
  EXPECT_TRUE(result.complete()) << cell;
  return fnv1a(fleet_result_json(spec, result));
}

/// Compares computed digests with kGolden, in both directions (no stale
/// rows, no new cells missing from the table).
void expect_pinned(const std::map<std::string, std::uint64_t>& computed,
                   std::string_view what) {
  std::map<std::string, std::uint64_t> pinned;
  for (const Golden& g : kGolden) pinned.emplace(g.cell, g.digest);
  bool all_match = pinned.size() == computed.size();
  for (const auto& [cell, digest] : computed) {
    const auto it = pinned.find(cell);
    if (it == pinned.end()) {
      ADD_FAILURE() << what << " " << cell << ": no pinned digest";
      all_match = false;
    } else if (it->second != digest) {
      ADD_FAILURE() << what << " " << cell << ": digest changed";
      all_match = false;
    }
  }
  for (const auto& [cell, digest] : pinned) {
    if (computed.count(cell) == 0) {
      ADD_FAILURE() << what << " " << cell << ": pinned but not computed";
    }
  }
  if (!all_match) {
    std::string rows;
    char line[160];
    for (const auto& [cell, digest] : computed) {
      std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxULL},\n",
                    cell.c_str(), static_cast<unsigned long long>(digest));
      rows += line;
    }
    ADD_FAILURE() << what << " computed rows:\n" << rows;
  }
}

void expect_variant_pinned(Variant variant, std::string_view name) {
  for (const std::size_t jobs : {1u, 4u}) {
    std::map<std::string, std::uint64_t> computed;
    for (const auto& [cell, spec] : cells()) {
      computed.emplace(cell, run_variant(cell, spec, variant, jobs));
    }
    expect_pinned(computed,
                  std::string(name) + " jobs " + std::to_string(jobs));
  }
}

TEST(FleetGoldenTest, Journaled) {
  expect_variant_pinned(Variant::kJournal, "journaled");
}

TEST(FleetGoldenTest, Unjournaled) {
  expect_variant_pinned(Variant::kNoJournal, "unjournaled");
}

TEST(FleetGoldenTest, Heartbeat) {
  expect_variant_pinned(Variant::kHeartbeat, "heartbeat");
}

TEST(FleetGoldenTest, StopThenResume) {
  expect_variant_pinned(Variant::kStopThenResume, "stop then resume");
}

}  // namespace
}  // namespace nvmsec
