// fleet-report: population post-mortem for fleet_sim campaigns.
//
// Ingests one or more fleet-result JSON files and renders the population
// view of the paper's endurance claim: lifetime percentiles (p1/p50/p99),
// the failure-cause histogram from the decision-event taxonomy, the
// wear-Gini distribution across the fleet, and exemplar worst/best devices
// with their seeds for exact single-device replay.
//
//   fleet_report --fleet fleet_maxwe.json
//   fleet_report --fleet fleet_maxwe.json --compare fleet_freep.json,fleet_none.json
//   fleet_report --fleet fleet.json --md fleet.md
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_parse.h"
#include "obs/profile_report.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using nvmsec::Cell;
using nvmsec::read_file;
using nvmsec::ReportRenderer;
using nvmsec::Table;
using nvmsec::minijson::JsonValue;
using nvmsec::minijson::parse_json;

struct SummaryStats {
  double count{0}, mean{0}, stddev{0}, min{0}, max{0};
  double p1{0}, p5{0}, p25{0}, p50{0}, p75{0}, p95{0}, p99{0};
};

struct Exemplar {
  double device{0}, seed{0}, normalized{0};
};

struct HistBucket {
  double lo{0}, hi{0}, count{0};
};

/// One parsed fleet-result file.
struct FleetDoc {
  std::string path;
  // spec
  double devices_spec{0}, seed_start{0}, shard_size{0};
  std::string mode, attack, wl, spare;
  double spare_fraction{0}, lines{0}, regions{0};
  std::string mix;  // rendered attack mix, empty when none
  // Batched-sampling fields; absent in files from older fleet_sim builds.
  bool has_fastpath{false};
  bool fastpath{true};
  std::string sampling_contract;
  // Detector fields; absent in files from older fleet_sim builds.
  std::string attack_phases;
  bool detect{false}, adaptive{false};
  bool has_detector{false};
  double devices_alarmed{0};
  SummaryStats alarms_raised, windows_in_alarm, cadence_changes;
  // result
  bool complete{true};
  double shards_done{0}, shards_total{0};
  double devices{0}, truncated_logs{0};
  SummaryStats lifetime, user_writes, wear_gini;
  std::vector<HistBucket> lifetime_hist;
  double hist_underflow{0}, hist_overflow{0};
  std::map<std::string, double> failure_causes;
  std::vector<Exemplar> worst, best, sample;
};

SummaryStats parse_summary(const JsonValue& v) {
  SummaryStats s;
  s.count = v.num("count");
  s.mean = v.num("mean");
  s.stddev = v.num("stddev");
  s.min = v.num("min");
  s.max = v.num("max");
  s.p1 = v.num("p1");
  s.p5 = v.num("p5");
  s.p25 = v.num("p25");
  s.p50 = v.num("p50");
  s.p75 = v.num("p75");
  s.p95 = v.num("p95");
  s.p99 = v.num("p99");
  return s;
}

std::vector<Exemplar> parse_exemplars(const JsonValue& v) {
  std::vector<Exemplar> out;
  for (const JsonValue& e : v.array) {
    Exemplar ex;
    ex.device = e.num("device");
    ex.seed = e.num("seed");
    ex.normalized = e.num("normalized");
    out.push_back(ex);
  }
  return out;
}

FleetDoc load_fleet(const std::string& path) {
  const JsonValue doc = parse_json(read_file(path));
  if (const JsonValue* type = doc.find("type");
      type == nullptr || !type->is_string() || type->string != "fleet_result") {
    throw std::runtime_error(path + ": not a fleet_result JSON file");
  }
  if (doc.num("v") != 1) {
    throw std::runtime_error(path + ": unsupported fleet_result version");
  }

  FleetDoc f;
  f.path = path;
  const JsonValue& spec = doc.at("spec");
  f.devices_spec = spec.num("devices");
  f.seed_start = spec.num("seed_start");
  f.shard_size = spec.num("shard_size");
  f.mode = spec.str("mode");
  f.attack = spec.str("attack");
  f.wl = spec.str("wl");
  f.spare = spec.str("spare");
  f.spare_fraction = spec.num("spare_fraction");
  f.lines = spec.num("lines");
  f.regions = spec.num("regions");
  if (const JsonValue* mix = spec.find("attack_mix");
      mix != nullptr && mix->is_array() && !mix->array.empty()) {
    std::ostringstream os;
    for (std::size_t i = 0; i < mix->array.size(); ++i) {
      if (i > 0) os << ", ";
      os << mix->array[i].str("attack") << ":" << mix->array[i].num("weight");
    }
    f.mix = os.str();
  }
  if (const JsonValue* fast = spec.find("fastpath");
      fast != nullptr && fast->is_bool()) {
    f.has_fastpath = true;
    f.fastpath = fast->boolean;
  }
  if (const JsonValue* contract = spec.find("sampling_contract");
      contract != nullptr && contract->is_string()) {
    f.sampling_contract = contract->string;
  }
  if (const JsonValue* phases = spec.find("attack_phases");
      phases != nullptr && phases->is_string()) {
    f.attack_phases = phases->string;
  }
  if (const JsonValue* detect = spec.find("detect");
      detect != nullptr && detect->is_bool()) {
    f.detect = detect->boolean;
  }
  if (const JsonValue* adaptive = spec.find("adaptive");
      adaptive != nullptr && adaptive->is_bool()) {
    f.adaptive = adaptive->boolean;
  }

  const JsonValue* complete = doc.find("complete");
  f.complete = complete == nullptr || complete->boolean;
  f.shards_done = doc.num("shards_done");
  f.shards_total = doc.num("shards_total");
  f.devices = doc.num("devices");
  f.truncated_logs = doc.num("truncated_logs");
  f.lifetime = parse_summary(doc.at("lifetime"));
  f.user_writes = parse_summary(doc.at("user_writes"));
  f.wear_gini = parse_summary(doc.at("wear_gini"));
  if (const JsonValue* det = doc.find("detector");
      det != nullptr && det->is_object()) {
    f.has_detector = true;
    f.devices_alarmed = det->num("devices_alarmed");
    f.alarms_raised = parse_summary(det->at("alarms_raised"));
    f.windows_in_alarm = parse_summary(det->at("windows_in_alarm"));
    f.cadence_changes = parse_summary(det->at("cadence_changes"));
  }

  const JsonValue& hist = doc.at("lifetime_hist");
  f.hist_underflow = hist.num("underflow");
  f.hist_overflow = hist.num("overflow");
  for (const JsonValue& b : hist.at("buckets").array) {
    if (b.array.size() != 3) {
      throw std::runtime_error(path + ": malformed histogram bucket");
    }
    f.lifetime_hist.push_back(
        {b.array[0].number, b.array[1].number, b.array[2].number});
  }
  for (const auto& [cause, count] : doc.at("failure_causes").object) {
    f.failure_causes[cause] = count.number;
  }
  f.worst = parse_exemplars(doc.at("worst"));
  f.best = parse_exemplars(doc.at("best"));
  f.sample = parse_exemplars(doc.at("sample"));
  return f;
}

std::string fmt(double v, int digits = 4) {
  return nvmsec::format_number(v, digits);
}

std::string pct(double v) { return fmt(100.0 * v, 2) + "%"; }

void add_summary_rows(Table& t, const std::string& name,
                      const SummaryStats& s, bool as_pct) {
  const auto v = [as_pct](double x) { return as_pct ? pct(x) : fmt(x, 4); };
  t.add_row({name + " p1", v(s.p1)});
  t.add_row({name + " p50", v(s.p50)});
  t.add_row({name + " p99", v(s.p99)});
  t.add_row({name + " mean", v(s.mean)});
  t.add_row({name + " stddev", v(s.stddev)});
  t.add_row({name + " min", v(s.min)});
  t.add_row({name + " max", v(s.max)});
}

void render_fleet(ReportRenderer& out, const FleetDoc& f) {
  Table spec({"field", "value"});
  spec.add_row({std::string("devices"), fmt(f.devices)});
  spec.add_row({std::string("scheme"), f.spare});
  spec.add_row({std::string("mode"), f.mode});
  spec.add_row({std::string("attack"),
                f.mix.empty() ? f.attack : "mix: " + f.mix});
  spec.add_row({std::string("wear leveler"), f.wl});
  if (f.has_fastpath) {
    spec.add_row({std::string("fastpath"),
                  std::string(f.fastpath ? "on" : "off") +
                      (f.sampling_contract.empty()
                           ? ""
                           : " (" + f.sampling_contract + ")")});
  }
  if (!f.attack_phases.empty()) {
    spec.add_row({std::string("attack phases"), f.attack_phases});
  }
  if (f.detect) {
    spec.add_row({std::string("detector"),
                  std::string(f.adaptive ? "on (adaptive cadence)" : "on")});
  }
  spec.add_row({std::string("spare fraction"), fmt(f.spare_fraction, 3)});
  spec.add_row({std::string("geometry"),
                fmt(f.lines) + " lines / " + fmt(f.regions) + " regions"});
  spec.add_row({std::string("seed stream"),
                fmt(f.seed_start) + " .. " +
                    fmt(f.seed_start + f.devices_spec - 1)});
  spec.add_row({std::string("shards"),
                fmt(f.shards_done) + " / " + fmt(f.shards_total)});
  out.heading("Population");
  out.table(spec);
  if (!f.complete) {
    out.text("WARNING: campaign incomplete (" + fmt(f.shards_done) + "/" +
             fmt(f.shards_total) +
             " shards); numbers cover only the finished shards.\n");
  }
  if (f.truncated_logs > 0) {
    out.text("note: " + fmt(f.truncated_logs) +
             " device event logs hit the cap; their failure causes were "
             "classified from the lifetime result instead.\n");
  }

  out.heading("Lifetime distribution");
  Table life({"metric", "value"});
  add_summary_rows(life, "normalized lifetime", f.lifetime, /*as_pct=*/true);
  out.table(life);

  if (!f.lifetime_hist.empty()) {
    double peak = 1;
    for (const HistBucket& b : f.lifetime_hist) peak = std::max(peak, b.count);
    std::ostringstream chart;
    for (const HistBucket& b : f.lifetime_hist) {
      chart << "[" << fmt(b.lo, 6) << ", " << fmt(b.hi, 6) << ") "
            << std::string(
                   static_cast<std::size_t>(b.count / peak * 50.0), '#')
            << " " << fmt(b.count) << "\n";
    }
    if (f.hist_underflow > 0) {
      chart << "underflow: " << fmt(f.hist_underflow) << "\n";
    }
    if (f.hist_overflow > 0) {
      chart << "overflow: " << fmt(f.hist_overflow) << "\n";
    }
    out.heading("Lifetime histogram (log-spaced buckets)");
    out.block(chart.str());
  }

  out.heading("Failure causes");
  Table causes({"cause", "devices", "share"});
  for (const auto& [cause, count] : f.failure_causes) {
    causes.add_row({cause, fmt(count),
                    f.devices > 0 ? pct(count / f.devices) : "-"});
  }
  out.table(causes);

  out.heading("Wear balance across the fleet");
  if (f.wear_gini.count > 0) {
    Table gini({"metric", "value"});
    add_summary_rows(gini, "wear Gini", f.wear_gini, /*as_pct=*/false);
    out.table(gini);
  } else {
    out.text("no per-device wear data (bit-level engine)\n");
  }

  // Population alarm statistics (only devices that ran a detector fold
  // into these summaries).
  if (f.has_detector && f.alarms_raised.count > 0) {
    out.heading("Attack detection across the fleet");
    Table det({"metric", "value"});
    det.add_row({std::string("devices with a detector"),
                 fmt(f.alarms_raised.count)});
    det.add_row({std::string("devices that raised an alarm"),
                 fmt(f.devices_alarmed) + " (" +
                     (f.alarms_raised.count > 0
                          ? pct(f.devices_alarmed / f.alarms_raised.count)
                          : "-") +
                     ")"});
    add_summary_rows(det, "alarms raised", f.alarms_raised,
                     /*as_pct=*/false);
    add_summary_rows(det, "windows in alarm", f.windows_in_alarm,
                     /*as_pct=*/false);
    if (f.adaptive) {
      add_summary_rows(det, "cadence changes", f.cadence_changes,
                       /*as_pct=*/false);
    }
    out.table(det);
  }

  const auto exemplar_table = [](const std::vector<Exemplar>& items) {
    Table t({"device", "seed", "normalized lifetime"});
    for (const Exemplar& e : items) {
      t.add_row({fmt(e.device), fmt(e.seed), pct(e.normalized)});
    }
    return t;
  };
  out.heading("Worst devices (replay with fleet settings + --seed)");
  out.table(exemplar_table(f.worst));
  out.heading("Best devices");
  out.table(exemplar_table(f.best));
  if (!f.sample.empty()) {
    out.heading("Random exemplar sample");
    out.text("(unbiased hash-priority reservoir; replayable subsample)");
    out.table(exemplar_table(f.sample));
  }
}

void render_compare(ReportRenderer& out, const std::vector<FleetDoc>& fleets) {
  out.heading("Scheme comparison");
  std::vector<std::string> header{"metric"};
  for (const FleetDoc& f : fleets) header.push_back(f.spare);
  Table cmp(header);
  const auto row = [&cmp, &fleets](const std::string& name, auto getter,
                                   bool as_pct) {
    std::vector<Cell> cells{name};
    for (const FleetDoc& f : fleets) {
      const double v = getter(f);
      cells.emplace_back(as_pct ? pct(v) : fmt(v, 4));
    }
    cmp.add_row(cells);
  };
  row("devices", [](const FleetDoc& f) { return f.devices; }, false);
  row("lifetime p1", [](const FleetDoc& f) { return f.lifetime.p1; }, true);
  row("lifetime p50", [](const FleetDoc& f) { return f.lifetime.p50; }, true);
  row("lifetime p99", [](const FleetDoc& f) { return f.lifetime.p99; }, true);
  row("lifetime mean", [](const FleetDoc& f) { return f.lifetime.mean; },
      true);
  row("wear Gini p50", [](const FleetDoc& f) { return f.wear_gini.p50; },
      false);
  bool any_detector = false;
  for (const FleetDoc& f : fleets) {
    any_detector = any_detector || (f.has_detector && f.alarms_raised.count > 0);
  }
  if (any_detector) {
    row("devices alarmed",
        [](const FleetDoc& f) { return f.devices_alarmed; }, false);
    row("alarms raised p50",
        [](const FleetDoc& f) { return f.alarms_raised.p50; }, false);
  }
  // Causes: union across fleets so a cause absent from one renders as 0.
  std::map<std::string, bool> all_causes;
  for (const FleetDoc& f : fleets) {
    for (const auto& [cause, count] : f.failure_causes) {
      all_causes[cause] = true;
    }
  }
  for (const auto& [cause, unused] : all_causes) {
    row("cause " + cause,
        [&cause](const FleetDoc& f) {
          const auto it = f.failure_causes.find(cause);
          return it == f.failure_causes.end() ? 0.0 : it->second;
        },
        false);
  }
  out.table(cmp);
  const double base = fleets.back().lifetime.p50;
  if (base > 0 && fleets.size() > 1) {
    std::ostringstream os;
    os << "p50 lifetime ratio vs " << fleets.back().spare << ":";
    for (std::size_t i = 0; i + 1 < fleets.size(); ++i) {
      os << " " << fleets[i].spare << "="
         << fmt(fleets[i].lifetime.p50 / base, 3);
    }
    out.text(os.str() + "\n");
  }
}

void render_profile_section(ReportRenderer& out, const std::string& path) {
  const nvmsec::ProfileDoc doc = nvmsec::parse_profile(read_file(path));
  out.heading("Campaign self-profile (" + path + ")");
  std::ostringstream body;
  nvmsec::render_profile_summary(body, doc);
  out.block(body.str());
}

void render_all(ReportRenderer& out, const std::vector<FleetDoc>& fleets,
                const std::string& profile_path) {
  out.title("Fleet post-mortem: " + fleets.front().path);
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    if (fleets.size() > 1) {
      out.heading("Fleet " + std::to_string(i + 1) + ": " + fleets[i].path);
    }
    render_fleet(out, fleets[i]);
  }
  if (!profile_path.empty()) render_profile_section(out, profile_path);
  if (fleets.size() > 1) render_compare(out, fleets);
}

}  // namespace

int main(int argc, char** argv) {
  using nvmsec::CliParser;

  CliParser cli(
      "fleet-report: population post-mortem of fleet_sim result files");
  cli.add_flag("fleet", "fleet-result JSON file (required)", "");
  cli.add_flag("compare",
               "comma-separated fleet-result files to compare against "
               "(e.g. Max-WE vs FreeP vs no-spare)", "");
  cli.add_flag("profile",
               "campaign self-profile JSON (fleet_sim --profile-out): adds "
               "top phases, cache hit rates and worker utilization", "");
  cli.add_flag("md", "also write the report as Markdown to this path", "");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  try {
    const std::string fleet_path = cli.get_string("fleet");
    if (fleet_path.empty()) {
      std::cerr << "error: --fleet is required\n";
      return 1;
    }
    std::vector<FleetDoc> fleets;
    fleets.push_back(load_fleet(fleet_path));
    std::istringstream compare(cli.get_string("compare"));
    std::string entry;
    while (std::getline(compare, entry, ',')) {
      if (!entry.empty()) fleets.push_back(load_fleet(entry));
    }

    const std::string profile_path = cli.get_string("profile");
    ReportRenderer terminal(std::cout, /*md=*/false);
    render_all(terminal, fleets, profile_path);

    if (const std::string md_path = cli.get_string("md"); !md_path.empty()) {
      std::ofstream md_out(md_path, std::ios::binary);
      if (!md_out) {
        std::cerr << "error: cannot write " << md_path << "\n";
        return 1;
      }
      ReportRenderer md(md_out, /*md=*/true);
      render_all(md, fleets, profile_path);
      std::cout << "markdown report: " << md_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
