#include "obs/profiler.h"

#include "obs/json.h"

namespace nvmsec {

namespace {

struct ProfPhaseInfo {
  std::string_view name;
  ProfPhase parent;
};

// Keep in enum order; the static_assert below catches a missing row.
constexpr ProfPhaseInfo kProfPhaseInfo[] = {
    {"experiment.setup", ProfPhase::kFleetDevice},
    {"engine.run", ProfPhase::kFleetDevice},
    {"engine.counts.draw", ProfPhase::kEngineRun},
    {"engine.counts.write", ProfPhase::kEngineRun},
    {"engine.batch.draw", ProfPhase::kEngineRun},
    {"engine.batch.write", ProfPhase::kEngineRun},
    {"engine.perwrite", ProfPhase::kEngineRun},
    {"engine.buffer", ProfPhase::kEngineRun},
    {"engine.rescue", ProfPhase::kEngineRun},
    {"engine.detector", ProfPhase::kEngineRun},
    {"engine.checkpoint", ProfPhase::kEngineRun},
    {"engine.snapshot", ProfPhase::kEngineRun},
    {"event.run", ProfPhase::kFleetDevice},
    {"event.rescue", ProfPhase::kEventRun},
    {"event.schedule", ProfPhase::kEventRun},
    {"event.wear_gini", ProfPhase::kEventRun},
    {"bit.run", ProfPhase::kFleetDevice},
    {"fleet.shard", ProfPhase::kCount},
    {"fleet.device", ProfPhase::kFleetShard},
    {"fleet.checkpoint", ProfPhase::kFleetShard},
    {"fleet.fold", ProfPhase::kFleetShard},
    {"fleet.merge", ProfPhase::kCount},
};
static_assert(sizeof(kProfPhaseInfo) / sizeof(kProfPhaseInfo[0]) ==
                  kProfPhaseCount,
              "kProfPhaseInfo out of sync with ProfPhase");

constexpr std::string_view kProfCounterNames[] = {
    "endurance_cache.hit", "endurance_cache.miss", "endurance_cache.evict",
    "buffer.hit",          "buffer.miss",          "buffer.evict",
    "counts.chunks",       "counts.writes",        "batch.runs",
    "batch.writes",        "perwrite.writes",      "detector.windows",
    "rescue.events",
};
static_assert(sizeof(kProfCounterNames) / sizeof(kProfCounterNames[0]) ==
                  kProfCounterCount,
              "kProfCounterNames out of sync with ProfCounter");

void append_u64(std::string& out, std::uint64_t x) {
  out += std::to_string(x);
}

}  // namespace

std::string_view prof_phase_name(ProfPhase phase) {
  return kProfPhaseInfo[static_cast<std::size_t>(phase)].name;
}

ProfPhase prof_phase_parent(ProfPhase phase) {
  return kProfPhaseInfo[static_cast<std::size_t>(phase)].parent;
}

std::string_view prof_counter_name(ProfCounter counter) {
  return kProfCounterNames[static_cast<std::size_t>(counter)];
}

void Profiler::merge(const Profiler& other) {
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    phases_[i].merge(other.phases_[i]);
  }
  for (std::size_t i = 0; i < kProfCounterCount; ++i) {
    counters_[i] += other.counters_[i];
  }
  workers_.insert(workers_.end(), other.workers_.begin(),
                  other.workers_.end());
  utilization_wall_ns_ += other.utilization_wall_ns_;
}

void Profiler::set_utilization(const std::vector<WorkerUtilization>& workers,
                               std::uint64_t wall_ns) {
  workers_.insert(workers_.end(), workers.begin(), workers.end());
  utilization_wall_ns_ += wall_ns;
}

std::uint64_t Profiler::attributed_root_ns() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    if (phases_[i].count == 0) continue;
    // A phase contributes at the root only when no observed ancestor will
    // already account for its span.
    bool covered = false;
    ProfPhase parent = kProfPhaseInfo[i].parent;
    while (parent != ProfPhase::kCount) {
      const auto pi = static_cast<std::size_t>(parent);
      if (phases_[pi].count > 0) {
        covered = true;
        break;
      }
      parent = kProfPhaseInfo[pi].parent;
    }
    if (!covered) total += phases_[i].total_ns;
  }
  return total;
}

std::string Profiler::to_json(std::uint64_t wall_ns) const {
  std::string out;
  out.reserve(2048);
  out += "{\"v\": 1, \"type\": \"profile\", \"deterministic\": false, "
         "\"clock\": \"steady_ns\", \"wall_ns\": ";
  append_u64(out, wall_ns);
  out += ",\n \"phases\": {";
  bool first = true;
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    const ProfPhaseStats& s = phases_[i];
    if (s.count == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    json_append_string(out, kProfPhaseInfo[i].name);
    out += ": {\"parent\": ";
    if (kProfPhaseInfo[i].parent == ProfPhase::kCount) {
      out += "null";
    } else {
      json_append_string(out, prof_phase_name(kProfPhaseInfo[i].parent));
    }
    out += ", \"count\": ";
    append_u64(out, s.count);
    out += ", \"total_ns\": ";
    append_u64(out, s.total_ns);
    out += ", \"min_ns\": ";
    append_u64(out, s.min_ns == ProfPhaseStats::kEmptyMin ? 0 : s.min_ns);
    out += ", \"max_ns\": ";
    append_u64(out, s.max_ns);
    out += "}";
  }
  out += "\n },\n \"counters\": {";
  first = true;
  for (std::size_t i = 0; i < kProfCounterCount; ++i) {
    if (counters_[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    json_append_string(out, kProfCounterNames[i]);
    out += ": ";
    append_u64(out, counters_[i]);
  }
  out += "\n },\n \"utilization\": {\"wall_ns\": ";
  append_u64(out, utilization_wall_ns_);
  out += ", \"workers\": [";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"busy_ns\": ";
    append_u64(out, workers_[i].busy_ns);
    out += ", \"tasks\": ";
    append_u64(out, workers_[i].tasks);
    out += "}";
  }
  out += "]}}\n";
  return out;
}

}  // namespace nvmsec
