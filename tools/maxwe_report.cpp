// maxwe-report: post-mortem analysis of a decision event log.
//
// Ingests the JSONL flight recorder a run wrote via --events-out and
// renders a human-readable account of *why* the device lived as long as it
// did: which spare lines rescued which raw lines, how many writes of
// lifetime each rescue bought, how the spare pool drained over time, how
// unequally the rescues were spread across regions, and what finally
// killed the run.
//
//   maxwe_report --events run.events.jsonl
//   maxwe_report --events maxwe.jsonl --compare freep.jsonl
//   maxwe_report --events run.events.jsonl --md postmortem.md
//                --metrics run.json --snapshots run.snapshots.jsonl
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "attack/mixed.h"
#include "obs/json_parse.h"
#include "obs/profile_report.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using nvmsec::Cell;
using nvmsec::read_file;
using nvmsec::ReportRenderer;
using nvmsec::Histogram;
using nvmsec::MixedPhaseSpec;
using nvmsec::parse_mixed_phases;
using nvmsec::Table;
using nvmsec::minijson::JsonValue;
using nvmsec::minijson::parse_json;
using nvmsec::minijson::parse_jsonl;

/// One spare-line rescue: a dynamic replacement decision recorded by the
/// scheme (Max-WE rmt_redirect / asr_alloc, FreeP spare_alloc).
struct Rescue {
  double t{0};
  std::string kind;
  std::int64_t spare_region{-1};  // -1: pool without region structure
  std::int64_t raw_line{-1};
  double writes_bought{0};
};

/// One closed detection window (a detect_window event): the raw signals
/// the ROC sweep re-thresholds, plus the detector's own verdict.
struct DetectWindow {
  double t{0};       // window end, in user writes
  double writes{0};  // writes covered by the window
  double uniformity{0}, occupancy{0}, sequential{0};
  bool anomalous{false};
  std::string kind, level;
};

/// An alarm transition (alarm_raised / alarm_cleared).
struct AlarmEvent {
  double t{0};
  bool raised{false};
  std::string kind;  // raised only
};

/// One adaptive cadence retune (a cadence_change event).
struct CadenceEvent {
  double t{0};
  double old_interval{0}, new_interval{0}, step{0};
};

/// Everything the report derives from one run's slice of the event log.
struct RunReport {
  // run_start metadata.
  bool has_meta{false};
  std::string mode, attack, wear_leveler, spare;
  double seed{0}, lines{0}, regions{0};
  double spare_fraction{0}, swr_fraction{0};
  bool detect_enabled{false}, adaptive_enabled{false};

  // Detector post-mortem inputs.
  std::string attack_schedule;  // attack_phases ground truth ("" = none)
  std::vector<DetectWindow> windows;
  std::vector<AlarmEvent> alarms;
  std::vector<CadenceEvent> cadence;

  // spare_roles metadata (scheme-dependent fields; -1 = absent).
  double swr_regions{-1}, rwr_regions{-1}, asr_regions{-1};
  double user_lines{-1}, pool_lines{-1};

  std::vector<Rescue> rescues;
  double end_t{0};
  std::string outcome{"(no run_end event)"};
  double line_deaths{0};
  std::uint64_t pool_exhausted{0};
  std::uint64_t region_wear_outs{0};
  std::uint64_t checkpoints{0};
  std::uint64_t scrubs{0};
  double scrub_repaired{0}, scrub_rmt{0}, scrub_lmt{0};
  std::map<std::string, std::uint64_t> eol_causes;
  bool truncated{false};
  double truncated_dropped{0};

  /// Rescues per raw-line region, for the wear-inequality stats.
  std::vector<double> region_rescues;

  [[nodiscard]] double rescue_gini() const {
    return region_rescues.empty() ? 0.0 : nvmsec::gini(region_rescues);
  }
  [[nodiscard]] double rescue_max_min() const {
    return region_rescues.empty() ? 1.0
                                  : nvmsec::max_min_ratio(region_rescues);
  }
};

double opt_num(const JsonValue& e, std::string_view key, double fallback) {
  const JsonValue* v = e.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

/// Split an event stream into runs (a run_start begins a new run; events
/// before the first run_start join the first run) and fold each event into
/// its run's report.
std::vector<RunReport> build_reports(const std::vector<JsonValue>& events) {
  std::vector<RunReport> runs;
  auto current = [&runs]() -> RunReport& {
    if (runs.empty()) runs.emplace_back();
    return runs.back();
  };

  for (const JsonValue& e : events) {
    const std::string& type = e.str("type");
    if (type == "schema") {
      const double v = e.num("v");
      if (v != 1) {
        throw std::runtime_error("unsupported event schema version " +
                                 std::to_string(v));
      }
      continue;
    }
    if (type == "run_start") {
      if (!runs.empty() && runs.back().has_meta) runs.emplace_back();
      RunReport& r = current();
      r.has_meta = true;
      r.mode = e.str("mode");
      r.attack = e.str("attack");
      r.wear_leveler = e.str("wear_leveler");
      r.spare = e.str("spare");
      r.seed = e.num("seed");
      r.lines = e.num("lines");
      r.regions = e.num("regions");
      r.spare_fraction = e.num("spare_fraction");
      r.swr_fraction = e.num("swr_fraction");
      r.detect_enabled = opt_num(e, "detect", 0) != 0;
      r.adaptive_enabled = opt_num(e, "adaptive", 0) != 0;
      if (r.regions > 0) {
        r.region_rescues.assign(static_cast<std::size_t>(r.regions), 0.0);
      }
      continue;
    }

    RunReport& r = current();
    const double t = e.num("t");
    r.end_t = std::max(r.end_t, t);
    if (type == "spare_roles") {
      r.swr_regions = opt_num(e, "swr_regions", -1);
      r.rwr_regions = opt_num(e, "rwr_regions", -1);
      r.asr_regions = opt_num(e, "asr_regions", -1);
      r.user_lines = opt_num(e, "user_lines", -1);
      r.pool_lines =
          opt_num(e, "asr_pool_lines", opt_num(e, "pool_lines", -1));
    } else if (type == "rmt_redirect" || type == "asr_alloc" ||
               type == "spare_alloc") {
      Rescue rescue;
      rescue.t = t;
      rescue.kind = type;
      rescue.spare_region =
          static_cast<std::int64_t>(opt_num(e, "spare_region", -1));
      rescue.raw_line = static_cast<std::int64_t>(opt_num(e, "raw_line", -1));
      r.rescues.push_back(rescue);
      if (!r.region_rescues.empty() && r.lines > 0 && rescue.raw_line >= 0) {
        const auto lines_per_region =
            static_cast<std::int64_t>(r.lines / r.regions);
        const auto region = static_cast<std::size_t>(
            rescue.raw_line / std::max<std::int64_t>(1, lines_per_region));
        if (region < r.region_rescues.size()) r.region_rescues[region] += 1;
      }
    } else if (type == "pool_exhausted") {
      ++r.pool_exhausted;
    } else if (type == "region_wear_out") {
      ++r.region_wear_outs;
    } else if (type == "checkpoint") {
      ++r.checkpoints;
    } else if (type == "scrub") {
      ++r.scrubs;
      r.scrub_rmt += opt_num(e, "rmt_corrupt", 0);
      r.scrub_lmt += opt_num(e, "lmt_corrupt", 0);
      r.scrub_repaired += opt_num(e, "repaired", 0);
    } else if (type == "attack_phases") {
      r.attack_schedule = e.str("schedule");
    } else if (type == "detect_window") {
      DetectWindow w;
      w.t = t;
      w.writes = e.num("writes");
      w.uniformity = e.num("uniformity");
      w.occupancy = e.num("occupancy");
      w.sequential = e.num("sequential");
      w.anomalous = e.num("anomalous") != 0;
      w.kind = e.str("kind");
      w.level = e.str("level");
      r.windows.push_back(std::move(w));
    } else if (type == "alarm_raised") {
      r.alarms.push_back({t, true, e.str("kind")});
    } else if (type == "alarm_cleared") {
      r.alarms.push_back({t, false, std::string()});
    } else if (type == "cadence_change") {
      r.cadence.push_back({t, e.num("old_interval"), e.num("new_interval"),
                           e.num("step")});
    } else if (type == "end_of_life") {
      ++r.eol_causes[e.str("cause")];
    } else if (type == "run_end") {
      r.outcome = e.str("outcome");
      r.end_t = std::max(r.end_t, e.num("user_writes"));
      r.line_deaths = opt_num(e, "line_deaths", 0);
    } else if (type == "log_truncated") {
      r.truncated = true;
      r.truncated_dropped += opt_num(e, "dropped", 0);
    }
    // pairing / asr_region / other detail events need no aggregation here.
  }

  // Attribute lifetime to rescues: each rescue "buys" the user writes until
  // the next rescue (the last one carries the run to its end).
  for (RunReport& r : runs) {
    std::stable_sort(
        r.rescues.begin(), r.rescues.end(),
        [](const Rescue& a, const Rescue& b) { return a.t < b.t; });
    for (std::size_t i = 0; i < r.rescues.size(); ++i) {
      const double next =
          i + 1 < r.rescues.size() ? r.rescues[i + 1].t : r.end_t;
      r.rescues[i].writes_bought = std::max(0.0, next - r.rescues[i].t);
    }
  }
  return runs;
}

std::string fmt(double v, int digits = 2) {
  return nvmsec::format_number(v, digits);
}

/// Benign phases: workload proxies, not attacks. Everything else counts
/// as ground-truth attack traffic for the detector scoring.
bool benign_phase(const std::string& name) {
  return name == "zipf" || name == "random";
}

/// Phase active at user-write time t. A bounded last phase cycles; a
/// 0-writes last phase is terminal and absorbs the rest of the run.
const std::string& phase_at(const std::vector<MixedPhaseSpec>& phases,
                            double t) {
  static const std::string empty;
  if (phases.empty()) return empty;
  double total = 0;
  for (const MixedPhaseSpec& p : phases) {
    total += static_cast<double>(p.writes);
  }
  const bool cyclic = phases.back().writes > 0;
  if (cyclic && total > 0) t = std::fmod(t, total);
  for (const MixedPhaseSpec& p : phases) {
    const double writes = static_cast<double>(p.writes);
    if (p.writes == 0 || t < writes) return p.attack;
    t -= writes;
  }
  return phases.back().attack;
}

/// Ground-truth label for a window: attack iff the phase active at its
/// midpoint is non-benign. No schedule -> fall back to the run's single
/// attack name (a pure-uaa detector run is all-attack, a zipf run is
/// all-benign).
bool window_is_attack(const RunReport& r,
                      const std::vector<MixedPhaseSpec>& phases,
                      const DetectWindow& w) {
  if (phases.empty()) return !benign_phase(r.attack);
  return !benign_phase(phase_at(phases, w.t - w.writes / 2));
}

void render_run(ReportRenderer& out, const RunReport& r, std::size_t top_n) {
  Table summary({"field", "value"});
  summary.add_row({std::string("scheme"), r.spare});
  summary.add_row({std::string("mode"), r.mode});
  summary.add_row({std::string("attack"), r.attack});
  summary.add_row({std::string("wear leveler"), r.wear_leveler});
  summary.add_row({std::string("seed"), fmt(r.seed)});
  summary.add_row({std::string("geometry"),
                   fmt(r.lines) + " lines / " + fmt(r.regions) + " regions"});
  summary.add_row({std::string("spare fraction"), fmt(r.spare_fraction, 3)});
  if (r.spare == "maxwe") {
    summary.add_row({std::string("swr fraction"), fmt(r.swr_fraction, 3)});
  }
  summary.add_row({std::string("user writes"), fmt(r.end_t)});
  summary.add_row({std::string("outcome"), r.outcome});
  summary.add_row({std::string("line deaths"), fmt(r.line_deaths)});
  summary.add_row(
      {std::string("rescues"), static_cast<std::int64_t>(r.rescues.size())});
  summary.add_row({std::string("checkpoints"),
                   static_cast<std::int64_t>(r.checkpoints)});
  out.heading("Run summary");
  out.table(summary);
  if (r.truncated) {
    out.text("WARNING: the event log hit its cap; " +
             fmt(r.truncated_dropped) +
             " decision events were dropped and every count below is a "
             "lower bound.\n");
  }

  if (r.user_lines >= 0) {
    Table roles({"role", "value"});
    if (r.swr_regions >= 0) {
      roles.add_row({std::string("SWR regions"), fmt(r.swr_regions)});
      roles.add_row({std::string("RWR regions"), fmt(r.rwr_regions)});
      roles.add_row({std::string("ASR regions"), fmt(r.asr_regions)});
    }
    roles.add_row({std::string("user lines"), fmt(r.user_lines)});
    if (r.pool_lines >= 0) {
      roles.add_row({std::string("spare-pool lines"), fmt(r.pool_lines)});
    }
    out.heading("Spare roles");
    out.table(roles);
  }

  // Rescue attribution: writes of lifetime each rescue bought, aggregated
  // by decision kind and by the spare region that supplied the line.
  out.heading("Rescue attribution");
  if (r.rescues.empty()) {
    out.text("no rescues recorded (the spare scheme never intervened)\n");
  } else {
    struct Agg {
      std::uint64_t count{0};
      double bought{0};
    };
    std::map<std::pair<std::string, std::int64_t>, Agg> by_source;
    double total_bought = 0;
    for (const Rescue& resc : r.rescues) {
      Agg& a = by_source[{resc.kind, resc.spare_region}];
      ++a.count;
      a.bought += resc.writes_bought;
      total_bought += resc.writes_bought;
    }
    Table attribution({"kind", "spare region", "rescues", "writes bought",
                       "share of lifetime"});
    for (const auto& [key, agg] : by_source) {
      const double share = r.end_t > 0 ? 100.0 * agg.bought / r.end_t : 0.0;
      attribution.add_row(
          {key.first,
           key.second < 0 ? std::string("pool") : fmt(double(key.second)),
           static_cast<std::int64_t>(agg.count), fmt(agg.bought),
           fmt(share, 1) + "%"});
    }
    out.table(attribution);
    out.text("total writes bought by rescues: " + fmt(total_bought) + " (" +
             fmt(r.end_t > 0 ? 100.0 * total_bought / r.end_t : 0.0, 1) +
             "% of lifetime)\n");

    std::vector<Rescue> top = r.rescues;
    std::stable_sort(top.begin(), top.end(),
                     [](const Rescue& a, const Rescue& b) {
                       return a.writes_bought > b.writes_bought;
                     });
    if (top.size() > top_n) top.resize(top_n);
    Table best({"at (user writes)", "kind", "raw line", "spare region",
                "writes bought"});
    for (const Rescue& resc : top) {
      best.add_row(
          {fmt(resc.t), resc.kind,
           resc.raw_line < 0 ? std::string("-") : fmt(double(resc.raw_line)),
           resc.spare_region < 0 ? std::string("pool")
                                 : fmt(double(resc.spare_region)),
           fmt(resc.writes_bought)});
    }
    out.heading("Top rescues by lifetime bought");
    out.table(best);
  }

  // Spare-consumption timeline: when in the run's life the scheme spent
  // its spare lines.
  if (!r.rescues.empty() && r.end_t > 0) {
    Histogram timeline(0, r.end_t, std::min<std::size_t>(20, std::max<std::size_t>(4, r.rescues.size())));
    for (const Rescue& resc : r.rescues) timeline.add(resc.t);
    out.heading("Spare consumption over time");
    out.text("(rescues per user-write interval)");
    out.block(timeline.ascii());
  }

  out.heading("Wear inequality");
  if (r.region_rescues.empty()) {
    out.text("no per-region rescue data (missing run_start geometry)\n");
  } else {
    Table ineq({"metric", "value"});
    ineq.add_row(
        {std::string("Gini of per-region rescues"), fmt(r.rescue_gini(), 4)});
    ineq.add_row({std::string("max/min per-region rescues"),
                  fmt(r.rescue_max_min(), 2)});
    out.table(ineq);
  }

  out.heading("Failure causes");
  Table causes({"event", "count"});
  for (const auto& [cause, count] : r.eol_causes) {
    causes.add_row({"end_of_life: " + cause,
                    static_cast<std::int64_t>(count)});
  }
  causes.add_row({std::string("pool_exhausted"),
                  static_cast<std::int64_t>(r.pool_exhausted)});
  causes.add_row({std::string("region_wear_out"),
                  static_cast<std::int64_t>(r.region_wear_outs)});
  out.table(causes);
  if (r.scrubs > 0) {
    out.text("scrubs: " + fmt(double(r.scrubs)) + " (RMT corrupt " +
             fmt(r.scrub_rmt) + ", LMT corrupt " + fmt(r.scrub_lmt) +
             ", repaired " + fmt(r.scrub_repaired) + ")\n");
  }
}

/// The attack-detector post-mortem: alarm timeline, detection latency and
/// false alarms against the attack_phases ground truth, an ROC sweep that
/// re-thresholds the raw per-window signals, and the adaptive cadence
/// trail.
void render_detector(ReportRenderer& out, const RunReport& r) {
  out.heading("Attack detector");
  if (r.windows.empty()) {
    out.text("no detect_window events (run without --detect, or the log "
             "was truncated before the first window closed)\n");
    return;
  }
  // The attack_phases ground truth, parsed as the run parsed it.
  const std::vector<MixedPhaseSpec> phases =
      r.attack_schedule.empty() ? std::vector<MixedPhaseSpec>{}
                                : parse_mixed_phases(r.attack_schedule);

  // Confusion counts at the detector's own per-window operating point and
  // at the hysteresis-filtered alarm level.
  std::uint64_t attack_windows = 0, benign_windows = 0;
  std::uint64_t raw_tp = 0, raw_fp = 0, alarm_tp = 0, alarm_fp = 0;
  double writes_in_alarm = 0, windows_in_alarm = 0, anomalous = 0;
  for (const DetectWindow& w : r.windows) {
    const bool attack = window_is_attack(r, phases, w);
    (attack ? attack_windows : benign_windows) += 1;
    if (w.anomalous) {
      ++anomalous;
      (attack ? raw_tp : raw_fp) += 1;
    }
    if (w.level == "under_attack") {
      windows_in_alarm += 1;
      writes_in_alarm += w.writes;
      (attack ? alarm_tp : alarm_fp) += 1;
    }
  }
  std::uint64_t raises = 0, clears = 0;
  for (const AlarmEvent& a : r.alarms) (a.raised ? raises : clears) += 1;

  Table summary({"metric", "value"});
  summary.add_row({std::string("windows closed"),
                   fmt(double(r.windows.size()))});
  summary.add_row({std::string("anomalous windows"), fmt(anomalous)});
  summary.add_row({std::string("alarms raised / cleared"),
                   fmt(double(raises)) + " / " + fmt(double(clears))});
  summary.add_row(
      {std::string("windows in alarm"),
       fmt(windows_in_alarm) + " (" +
           fmt(100.0 * windows_in_alarm / double(r.windows.size()), 1) +
           "% of windows)"});
  if (r.end_t > 0) {
    summary.add_row({std::string("lifetime in alarm"),
                     fmt(100.0 * writes_in_alarm / r.end_t, 1) + "%"});
  }
  if (!r.attack_schedule.empty()) {
    summary.add_row({std::string("ground-truth schedule"),
                     r.attack_schedule});
  }
  out.table(summary);

  // Detection latency: for each benign->attack onset in the first cycle,
  // the user writes from the onset to the first alarm raised at or after
  // it. False alarms are raises while ground truth says benign.
  if (!phases.empty() || !benign_phase(r.attack)) {
    std::vector<std::pair<double, std::string>> onsets;
    if (phases.empty()) {
      onsets.emplace_back(0.0, r.attack);
    } else {
      double at = 0;
      bool prev_benign = true;
      for (const MixedPhaseSpec& p : phases) {
        if (!benign_phase(p.attack) && prev_benign) {
          onsets.emplace_back(at, p.attack);
        }
        prev_benign = benign_phase(p.attack);
        if (p.writes == 0) break;
        at += static_cast<double>(p.writes);
      }
    }
    std::uint64_t false_alarms = 0;
    for (const AlarmEvent& a : r.alarms) {
      if (a.raised && phases.empty() && benign_phase(r.attack)) {
        ++false_alarms;
      } else if (a.raised && !phases.empty() &&
                 benign_phase(phase_at(phases, a.t))) {
        ++false_alarms;
      }
    }
    Table latency({"attack onset (user writes)", "phase", "first alarm",
                   "latency (writes)"});
    for (const auto& [at, name] : onsets) {
      const AlarmEvent* first = nullptr;
      for (const AlarmEvent& a : r.alarms) {
        if (a.raised && a.t >= at) {
          first = &a;
          break;
        }
      }
      latency.add_row({fmt(at), name,
                       first != nullptr ? fmt(first->t) : std::string("never"),
                       first != nullptr ? fmt(first->t - at)
                                        : std::string("-")});
    }
    out.heading("Detection latency");
    out.table(latency);
    out.text("false alarms (raised while ground truth benign): " +
             fmt(double(false_alarms)) + "\n");
  }

  // ROC sweep: re-threshold the raw signals post-mortem.
  // Sequential-fraction-above catches sweeps (UAA), occupancy-below
  // catches concentration (BPA / hotspot); uniformity-below is the
  // chi-square backstop for non-sequential sweeps. The shipped operating
  // point combines all three.
  if (attack_windows > 0 && benign_windows > 0) {
    Table roc({"threshold", "sequential>t TPR", "sequential>t FPR",
               "occupancy<t TPR", "occupancy<t FPR", "uniformity<t TPR",
               "uniformity<t FPR"});
    for (double thr = 0.05; thr < 1.0; thr += 0.10) {
      std::uint64_t s_tp = 0, s_fp = 0, o_tp = 0, o_fp = 0, u_tp = 0,
                    u_fp = 0;
      for (const DetectWindow& w : r.windows) {
        const bool attack = window_is_attack(r, phases, w);
        if (w.sequential > thr) (attack ? s_tp : s_fp) += 1;
        if (w.occupancy < thr) (attack ? o_tp : o_fp) += 1;
        if (w.uniformity < thr) (attack ? u_tp : u_fp) += 1;
      }
      roc.add_row({fmt(thr, 2),
                   fmt(double(s_tp) / double(attack_windows), 3),
                   fmt(double(s_fp) / double(benign_windows), 3),
                   fmt(double(o_tp) / double(attack_windows), 3),
                   fmt(double(o_fp) / double(benign_windows), 3),
                   fmt(double(u_tp) / double(attack_windows), 3),
                   fmt(double(u_fp) / double(benign_windows), 3)});
    }
    out.heading("ROC sweep (re-thresholded raw signals)");
    out.table(roc);
    out.text("shipped operating point: per-window TPR " +
             fmt(double(raw_tp) / double(attack_windows), 3) + ", FPR " +
             fmt(double(raw_fp) / double(benign_windows), 3) +
             "; after hysteresis TPR " +
             fmt(double(alarm_tp) / double(attack_windows), 3) + ", FPR " +
             fmt(double(alarm_fp) / double(benign_windows), 3) + "\n");
  }

  // Adaptive cadence trail: every retune the controller applied.
  if (r.adaptive_enabled || !r.cadence.empty()) {
    out.heading("Adaptive cadence changes");
    if (r.cadence.empty()) {
      out.text("none (alarm never committed, or the leveler has no "
               "cadence)\n");
    } else {
      Table trail({"at (user writes)", "interval", "step"});
      for (const CadenceEvent& c : r.cadence) {
        trail.add_row({fmt(c.t),
                       fmt(c.old_interval) + " -> " + fmt(c.new_interval),
                       fmt(c.step)});
      }
      out.table(trail);
    }
  }
}

void render_compare(ReportRenderer& out, const RunReport& a,
                    const RunReport& b) {
  out.heading("Side-by-side comparison");
  Table cmp({"metric", a.spare + " (A)", b.spare + " (B)"});
  const auto row = [&cmp](const std::string& name, const std::string& va,
                          const std::string& vb) {
    cmp.add_row({name, va, vb});
  };
  row("attack", a.attack, b.attack);
  row("wear leveler", a.wear_leveler, b.wear_leveler);
  row("seed", fmt(a.seed), fmt(b.seed));
  row("user writes", fmt(a.end_t), fmt(b.end_t));
  row("outcome", a.outcome, b.outcome);
  row("line deaths", fmt(a.line_deaths), fmt(b.line_deaths));
  row("rescues", fmt(double(a.rescues.size())),
      fmt(double(b.rescues.size())));
  row("pool exhausted", fmt(double(a.pool_exhausted)),
      fmt(double(b.pool_exhausted)));
  row("regions worn out", fmt(double(a.region_wear_outs)),
      fmt(double(b.region_wear_outs)));
  row("rescue Gini", fmt(a.rescue_gini(), 4), fmt(b.rescue_gini(), 4));
  row("rescue max/min", fmt(a.rescue_max_min(), 2),
      fmt(b.rescue_max_min(), 2));
  if (!a.windows.empty() || !b.windows.empty()) {
    row("detector windows", fmt(double(a.windows.size())),
        fmt(double(b.windows.size())));
    const auto raises = [](const RunReport& r) {
      double n = 0;
      for (const AlarmEvent& e : r.alarms) n += e.raised ? 1 : 0;
      return n;
    };
    row("alarms raised", fmt(raises(a)), fmt(raises(b)));
    row("cadence changes", fmt(double(a.cadence.size())),
        fmt(double(b.cadence.size())));
  }
  out.table(cmp);
  if (b.end_t > 0) {
    // With B as the static baseline this is the lifetime-recovered metric
    // the adaptive-defense bench gates on.
    out.text("lifetime ratio A/B: " + fmt(a.end_t / b.end_t, 3) + "\n");
  }
}

void render_metrics(ReportRenderer& out, const std::string& path) {
  const JsonValue doc = parse_json(read_file(path));
  out.heading("Run metrics (" + path + ")");
  Table t({"kind", "name", "value"});
  for (const char* kind : {"counters", "gauges"}) {
    const JsonValue* group = doc.find(kind);
    if (group == nullptr || !group->is_object()) continue;
    for (const auto& [name, value] : group->object) {
      if (value.is_number()) {
        t.add_row({std::string(kind), name, fmt(value.number, 4)});
      }
    }
  }
  out.table(t);
}

void render_snapshots(ReportRenderer& out, const std::string& path) {
  const std::vector<JsonValue> snaps = parse_jsonl(read_file(path));
  if (snaps.empty()) return;
  out.heading("Final wear snapshot (" + path + ")");
  // The last snapshot that carries a wear block describes end-of-run wear.
  const JsonValue* wear = nullptr;
  double at = 0;
  for (const JsonValue& s : snaps) {
    if (const JsonValue* w = s.find("wear"); w != nullptr && w->is_object()) {
      wear = w;
      at = opt_num(s, "user_writes", at);
    }
  }
  if (wear == nullptr) {
    out.text("no wear blocks in the snapshot file\n");
    return;
  }
  Table t({"metric", "value"});
  t.add_row({std::string("at user writes"), fmt(at)});
  t.add_row({std::string("utilization Gini"),
             fmt(opt_num(*wear, "utilization_gini", 0), 4)});
  t.add_row({std::string("worn-out lines"),
             fmt(opt_num(*wear, "worn_out_lines", 0))});
  t.add_row({std::string("max line utilization"),
             fmt(opt_num(*wear, "max_line_utilization", 0), 4)});
  t.add_row({std::string("min line utilization"),
             fmt(opt_num(*wear, "min_line_utilization", 0), 4)});
  if (const JsonValue* ru = wear->find("region_utilization");
      ru != nullptr && ru->is_array() && !ru->array.empty()) {
    std::vector<double> util;
    util.reserve(ru->array.size());
    for (const JsonValue& v : ru->array) util.push_back(v.number);
    t.add_row({std::string("region-utilization Gini"),
               fmt(nvmsec::gini(util), 4)});
    t.add_row({std::string("region-utilization max/min"),
               fmt(nvmsec::max_min_ratio(util), 2)});
  }
  out.table(t);
}

void render_profile_section(ReportRenderer& out, const std::string& path) {
  const nvmsec::ProfileDoc doc = nvmsec::parse_profile(read_file(path));
  out.heading("Self-profile (" + path + ")");
  std::ostringstream body;
  nvmsec::render_profile_summary(body, doc);
  out.block(body.str());
}

std::vector<RunReport> load_reports(const std::string& path) {
  std::vector<RunReport> runs = build_reports(parse_jsonl(read_file(path)));
  if (runs.empty()) {
    throw std::runtime_error(path + ": no events to report on");
  }
  return runs;
}

void render_all(ReportRenderer& out, const std::string& events_path,
                const std::vector<RunReport>& runs,
                const std::vector<RunReport>* other, std::size_t top_n,
                const std::string& metrics_path,
                const std::string& snapshots_path,
                const std::string& profile_path, bool force_detector) {
  out.title("Max-WE post-mortem: " + events_path);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs.size() > 1) {
      out.heading("Run " + std::to_string(i + 1) + " of " +
                  std::to_string(runs.size()));
    }
    render_run(out, runs[i], top_n);
    if (force_detector || runs[i].detect_enabled ||
        !runs[i].windows.empty()) {
      render_detector(out, runs[i]);
    }
  }
  if (!metrics_path.empty()) render_metrics(out, metrics_path);
  if (!snapshots_path.empty()) render_snapshots(out, snapshots_path);
  if (!profile_path.empty()) render_profile_section(out, profile_path);
  if (other != nullptr) render_compare(out, runs.front(), other->front());
}

}  // namespace

int main(int argc, char** argv) {
  using nvmsec::CliParser;

  CliParser cli(
      "maxwe-report: post-mortem analysis of a maxwe_sim decision event "
      "log (--events-out)");
  cli.add_flag("events", "event-log JSONL file (required)", "");
  cli.add_flag("compare",
               "second event log; adds a side-by-side comparison of the "
               "first run in each file", "");
  cli.add_flag("metrics", "metrics JSON from the same run (--metrics-out)",
               "");
  cli.add_flag("snapshots",
               "wear-snapshot JSONL from the same run (--snapshot-out)", "");
  cli.add_flag("profile",
               "self-profile JSON from the same run (--profile-out): adds "
               "top phases, cache hit rates and utilization", "");
  cli.add_flag("md", "also write the report as Markdown to this path", "");
  cli.add_flag("top", "rows in the top-rescues table", "10");
  cli.add_switch("detector",
                 "force the attack-detector section (alarm timeline, "
                 "detection latency, ROC sweep) even when the log carries "
                 "no detector events; auto-enabled when it does");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  try {
    const std::string events_path = cli.get_string("events");
    if (events_path.empty()) {
      std::cerr << "error: --events is required\n";
      return 1;
    }
    const std::size_t top_n = cli.get_uint("top");
    const std::string metrics_path = cli.get_string("metrics");
    const std::string snapshots_path = cli.get_string("snapshots");
    const std::string profile_path = cli.get_string("profile");

    const std::vector<RunReport> runs = load_reports(events_path);
    std::vector<RunReport> other;
    const std::string compare_path = cli.get_string("compare");
    if (!compare_path.empty()) other = load_reports(compare_path);
    const std::vector<RunReport>* other_ptr =
        compare_path.empty() ? nullptr : &other;

    const bool force_detector = cli.get_bool("detector");

    ReportRenderer terminal(std::cout, /*md=*/false);
    render_all(terminal, events_path, runs, other_ptr, top_n, metrics_path,
               snapshots_path, profile_path, force_detector);

    if (const std::string md_path = cli.get_string("md"); !md_path.empty()) {
      std::ofstream md_out(md_path, std::ios::binary);
      if (!md_out) {
        std::cerr << "error: cannot write " << md_path << "\n";
        return 1;
      }
      ReportRenderer md(md_out, /*md=*/true);
      render_all(md, events_path, runs, other_ptr, top_n, metrics_path,
                 snapshots_path, profile_path, force_detector);
      std::cout << "markdown report: " << md_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
