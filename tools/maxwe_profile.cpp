// maxwe-profile: render the self-profile JSON a run or campaign wrote via
// --profile-out (maxwe_sim / fleet_sim).
//
// Shows where the wall time went: a flat per-phase table (exact inclusive
// totals), the phase hierarchy with approximate self times, event counters
// with derived cache hit rates, and pool-worker utilization. The final
// "attributed: NN.N% of wall" line is the coverage gate the overhead bench
// checks.
//
//   maxwe_profile --profile run.profile.json
//   maxwe_profile --profile run.profile.json --compare baseline.json
#include <iostream>
#include <string>

#include "obs/profile_report.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nvmsec;

  CliParser cli("maxwe-profile: self-profile viewer (phase time "
                "attribution, counters, worker utilization)");
  cli.add_flag("profile", "profile JSON written via --profile-out", "");
  cli.add_flag("compare",
               "baseline profile JSON: render per-phase and per-counter "
               "deltas (current - baseline) instead of the full view", "");
  cli.add_switch("summary",
                 "compact view: top phases, hit rates, utilization");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  try {
    const std::string path = cli.get_string("profile");
    if (path.empty()) {
      std::cerr << "error: --profile is required\n";
      return 1;
    }
    const ProfileDoc current = parse_profile(read_file(path));

    if (const std::string base = cli.get_string("compare"); !base.empty()) {
      const ProfileDoc baseline = parse_profile(read_file(base));
      render_profile_compare(std::cout, baseline, current);
      return 0;
    }
    if (cli.get_bool("summary")) {
      render_profile_summary(std::cout, current);
    } else {
      render_profile(std::cout, current);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
