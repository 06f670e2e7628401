#include "obs/profile_report.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/json_parse.h"
#include "obs/profiler.h"
#include "util/table.h"

namespace nvmsec {

namespace {

std::uint64_t as_u64(double v) {
  if (v < 0) throw std::runtime_error("profile: negative count field");
  return static_cast<std::uint64_t>(v);
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole > 0
             ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
             : 0.0;
}

/// Static parent of a phase name in this build's taxonomy; empty when the
/// name is unknown (a file from a newer build) or already a root.
std::string_view static_parent_of(std::string_view name) {
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    const auto p = static_cast<ProfPhase>(i);
    if (prof_phase_name(p) != name) continue;
    const ProfPhase parent = prof_phase_parent(p);
    return parent == ProfPhase::kCount ? std::string_view{}
                                       : prof_phase_name(parent);
  }
  return {};
}

void append_rate_line(std::ostream& os, std::string_view label,
                      std::uint64_t hits, std::uint64_t misses) {
  if (hits + misses == 0) return;
  os << "  " << label << " hit rate: ";
  const double rate = pct(hits, hits + misses);
  os.precision(1);
  os << std::fixed << rate << "% (" << hits << " hits, " << misses
     << " misses)\n";
}

}  // namespace

std::uint64_t ProfileDoc::counter(std::string_view name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

std::size_t ProfileDoc::observed_parent(std::size_t i) const {
  std::string_view current = phases[i].parent;
  while (!current.empty()) {
    for (std::size_t j = 0; j < phases.size(); ++j) {
      if (phases[j].name == current) return j;
    }
    current = static_parent_of(current);
  }
  return npos;
}

std::uint64_t ProfileDoc::attributed_ns() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (observed_parent(i) == npos) total += phases[i].total_ns;
  }
  return total;
}

ProfileDoc parse_profile(std::string_view text) {
  const minijson::JsonValue doc = minijson::parse_json(text);
  if (!doc.is_object()) {
    throw std::runtime_error("profile: document is not a JSON object");
  }
  ProfileDoc out;
  out.version = static_cast<int>(doc.num("v"));
  if (out.version != 1) {
    throw std::runtime_error("profile: unsupported schema version " +
                             std::to_string(out.version));
  }
  if (doc.str("type") != "profile") {
    throw std::runtime_error("profile: unexpected document type '" +
                             doc.str("type") + "'");
  }
  out.wall_ns = as_u64(doc.num("wall_ns"));

  const minijson::JsonValue& phases = doc.at("phases");
  if (!phases.is_object()) {
    throw std::runtime_error("profile: 'phases' is not an object");
  }
  for (const auto& [name, v] : phases.object) {
    ProfilePhaseRow row;
    row.name = name;
    const minijson::JsonValue& parent = v.at("parent");
    if (parent.is_string()) {
      row.parent = parent.string;
    } else if (!parent.is_null()) {
      throw std::runtime_error("profile: phase parent must be string|null");
    }
    row.count = as_u64(v.num("count"));
    row.total_ns = as_u64(v.num("total_ns"));
    row.min_ns = as_u64(v.num("min_ns"));
    row.max_ns = as_u64(v.num("max_ns"));
    out.phases.push_back(std::move(row));
  }

  const minijson::JsonValue& counters = doc.at("counters");
  if (!counters.is_object()) {
    throw std::runtime_error("profile: 'counters' is not an object");
  }
  for (const auto& [name, v] : counters.object) {
    if (!v.is_number()) {
      throw std::runtime_error("profile: counter '" + name +
                               "' is not a number");
    }
    out.counters.emplace_back(name, as_u64(v.number));
  }

  const minijson::JsonValue& util = doc.at("utilization");
  out.utilization_wall_ns = as_u64(util.num("wall_ns"));
  const minijson::JsonValue& workers = util.at("workers");
  if (!workers.is_array()) {
    throw std::runtime_error("profile: 'utilization.workers' not an array");
  }
  for (const minijson::JsonValue& w : workers.array) {
    ProfileWorkerRow row;
    row.busy_ns = as_u64(w.num("busy_ns"));
    row.tasks = as_u64(w.num("tasks"));
    out.workers.push_back(row);
  }
  return out;
}

namespace {

void render_attributed_line(std::ostream& os, const ProfileDoc& doc) {
  const std::uint64_t attributed = doc.attributed_ns();
  os.precision(1);
  os << std::fixed << "attributed: " << pct(attributed, doc.wall_ns)
     << "% of wall (" << ms(attributed) << " of " << ms(doc.wall_ns)
     << " ms)";
  if (attributed > doc.wall_ns && doc.workers.size() > 1) {
    // Root spans from concurrent workers overlap in wall time, so a
    // parallel profile legitimately attributes more than 100%.
    os << " — concurrent spans from " << doc.workers.size()
       << " workers overlap; >100% is expected";
  }
  os << '\n';
}

void render_flat_table(std::ostream& os, const ProfileDoc& doc,
                       std::size_t limit, const char* title) {
  std::vector<std::size_t> order(doc.phases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&doc](std::size_t a, std::size_t b) {
                     return doc.phases[a].total_ns > doc.phases[b].total_ns;
                   });
  if (limit > 0 && order.size() > limit) order.resize(limit);

  Table table({"phase", "count", "total_ms", "%wall", "avg_us", "min_us",
               "max_us"});
  table.set_title(title);
  table.set_precision(3);
  for (std::size_t i : order) {
    const ProfilePhaseRow& p = doc.phases[i];
    const double avg =
        p.count > 0 ? us(p.total_ns) / static_cast<double>(p.count) : 0.0;
    table.add_row({p.name, static_cast<std::int64_t>(p.count),
                   ms(p.total_ns), pct(p.total_ns, doc.wall_ns), avg,
                   us(p.min_ns), us(p.max_ns)});
  }
  table.print(os);
}

void render_hierarchy(std::ostream& os, const ProfileDoc& doc) {
  // children[i] = phases whose nearest observed ancestor is i (file order);
  // roots = phases with no observed ancestor.
  std::vector<std::vector<std::size_t>> children(doc.phases.size());
  std::vector<std::size_t> roots;
  std::vector<std::uint64_t> child_ns(doc.phases.size(), 0);
  for (std::size_t i = 0; i < doc.phases.size(); ++i) {
    const std::size_t parent = doc.observed_parent(i);
    if (parent == ProfileDoc::npos) {
      roots.push_back(i);
    } else {
      children[parent].push_back(i);
      child_ns[parent] += doc.phases[i].total_ns;
    }
  }

  Table table({"phase", "total_ms", "self_ms", "%wall"});
  table.set_title(
      "Phase hierarchy (self = total - children, clamped at 0; overlapping "
      "phases make self approximate — flat totals are exact)");
  table.set_precision(3);
  const auto add_subtree = [&](auto&& self, std::size_t i,
                               std::size_t depth) -> void {
    const ProfilePhaseRow& p = doc.phases[i];
    const std::uint64_t self_ns =
        p.total_ns > child_ns[i] ? p.total_ns - child_ns[i] : 0;
    table.add_row({std::string(2 * depth, ' ') + p.name, ms(p.total_ns),
                   ms(self_ns), pct(p.total_ns, doc.wall_ns)});
    for (std::size_t c : children[i]) self(self, c, depth + 1);
  };
  for (std::size_t r : roots) add_subtree(add_subtree, r, 0);
  table.print(os);
}

void render_counters(std::ostream& os, const ProfileDoc& doc) {
  if (!doc.counters.empty()) {
    Table table({"counter", "value"});
    table.set_title("Event counters");
    for (const auto& [name, value] : doc.counters) {
      table.add_row({name, static_cast<std::int64_t>(value)});
    }
    table.print(os);
  }
  append_rate_line(os, "endurance cache", doc.counter("endurance_cache.hit"),
                   doc.counter("endurance_cache.miss"));
  append_rate_line(os, "dram buffer", doc.counter("buffer.hit"),
                   doc.counter("buffer.miss"));
}

void render_utilization(std::ostream& os, const ProfileDoc& doc,
                        bool per_worker) {
  if (doc.workers.empty()) return;
  std::uint64_t busy_sum = 0;
  std::uint64_t busy_max = 0;
  for (const ProfileWorkerRow& w : doc.workers) {
    busy_sum += w.busy_ns;
    busy_max = std::max(busy_max, w.busy_ns);
  }
  const double mean =
      static_cast<double>(busy_sum) / static_cast<double>(doc.workers.size());
  if (per_worker) {
    Table table({"worker", "busy_ms", "busy_%", "tasks"});
    table.set_title("Worker utilization (parallel sections)");
    table.set_precision(3);
    for (std::size_t i = 0; i < doc.workers.size(); ++i) {
      const ProfileWorkerRow& w = doc.workers[i];
      table.add_row({static_cast<std::int64_t>(i), ms(w.busy_ns),
                     pct(w.busy_ns, doc.utilization_wall_ns),
                     static_cast<std::int64_t>(w.tasks)});
    }
    table.print(os);
  }
  os.precision(1);
  os << std::fixed << "  workers: " << doc.workers.size()
     << ", section wall " << ms(doc.utilization_wall_ns) << " ms, busy "
     << pct(busy_sum, doc.utilization_wall_ns *
                          static_cast<std::uint64_t>(doc.workers.size()))
     << "%, imbalance "
     << (mean > 0 ? static_cast<double>(busy_max) / mean : 0.0)
     << " (max/mean busy)\n";
}

}  // namespace

void render_profile(std::ostream& os, const ProfileDoc& doc) {
  os.precision(3);
  os << std::fixed << "Profile: wall " << ms(doc.wall_ns)
     << " ms (schema v" << doc.version << ", steady clock, timings are "
     << "non-deterministic)\n\n";
  render_flat_table(os, doc, 0, "Phase totals (inclusive, total-descending)");
  os << '\n';
  render_hierarchy(os, doc);
  os << '\n';
  render_counters(os, doc);
  os << '\n';
  render_utilization(os, doc, /*per_worker=*/true);
  render_attributed_line(os, doc);
}

void render_profile_summary(std::ostream& os, const ProfileDoc& doc,
                            std::size_t top_phases) {
  render_flat_table(os, doc, top_phases, "Top phases by total time");
  render_counters(os, doc);
  render_utilization(os, doc, /*per_worker=*/false);
  render_attributed_line(os, doc);
}

void render_profile_compare(std::ostream& os, const ProfileDoc& baseline,
                            const ProfileDoc& current) {
  const auto find_ns = [](const ProfileDoc& doc,
                          std::string_view name) -> std::uint64_t {
    for (const ProfilePhaseRow& p : doc.phases) {
      if (p.name == name) return p.total_ns;
    }
    return 0;
  };

  os.precision(3);
  os << std::fixed << "Profile compare: baseline wall " << ms(baseline.wall_ns)
     << " ms, current wall " << ms(current.wall_ns) << " ms ("
     << (baseline.wall_ns > 0
             ? 100.0 * (static_cast<double>(current.wall_ns) /
                            static_cast<double>(baseline.wall_ns) -
                        1.0)
             : 0.0)
     << "% delta)\n\n";

  Table table({"phase", "base_ms", "cur_ms", "delta_ms", "delta_%"});
  table.set_title("Phase totals vs baseline");
  table.set_precision(3);
  const auto add_delta_row = [&](const std::string& name,
                                 std::uint64_t base_ns,
                                 std::uint64_t cur_ns) {
    const double delta = ms(cur_ns) - ms(base_ns);
    const double rel = base_ns > 0 ? 100.0 * delta / ms(base_ns) : 0.0;
    table.add_row({name, ms(base_ns), ms(cur_ns), delta, rel});
  };
  for (const ProfilePhaseRow& p : current.phases) {
    add_delta_row(p.name, find_ns(baseline, p.name), p.total_ns);
  }
  for (const ProfilePhaseRow& p : baseline.phases) {
    if (find_ns(current, p.name) == 0) {
      add_delta_row(p.name, p.total_ns, 0);
    }
  }
  table.print(os);

  Table counters({"counter", "base", "cur", "delta"});
  counters.set_title("Counters vs baseline");
  bool any = false;
  const auto add_counter_row = [&](const std::string& name,
                                   std::uint64_t base, std::uint64_t cur) {
    counters.add_row({name, static_cast<std::int64_t>(base),
                      static_cast<std::int64_t>(cur),
                      static_cast<std::int64_t>(cur) -
                          static_cast<std::int64_t>(base)});
    any = true;
  };
  for (const auto& [name, value] : current.counters) {
    add_counter_row(name, baseline.counter(name), value);
  }
  for (const auto& [name, value] : baseline.counters) {
    if (current.counter(name) == 0) add_counter_row(name, value, 0);
  }
  if (any) {
    os << '\n';
    counters.print(os);
  }
}

}  // namespace nvmsec
