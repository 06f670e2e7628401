// Benchmark entry point: runs one workload and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 reports the end-to-end metrics of an untraced timed run;
// --trace 1 reports the per-layer metrics of the traced run. --scratch is
// where the fleet journal goes (default: the current directory).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\nworkloads:";
  for (const perfbench::Workload& w : perfbench::workloads()) {
    std::cerr << " " << w.name;
  }
  std::cerr << "\n";
  return 2;
}

bool parse_u64(const std::string& text, unsigned long long* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scratch = ".";
  unsigned long long seed = 0;
  unsigned long long seconds = 0;
  unsigned long long trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = parse_u64(value, &seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      ok = parse_u64(value, &seconds);
    } else if (flag == "--trace") {
      ok = parse_u64(value, &trace);
    } else if (flag == "--scratch") {
      scratch = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return usage(("bad value for " + flag).c_str());
  }
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing --seed");
  if (seconds == 0) return usage("--seconds must be a positive integer");
  if (trace > 1) return usage("--trace must be 0 or 1");

  perfbench::Outcome out;
  try {
    out = trace == 1 ? perfbench::run_traced_workload(*w, seed, scratch)
                     : perfbench::run_timed(*w, seed,
                                            static_cast<double>(seconds),
                                            scratch);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      out.correct = false;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::fflush(stdout);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
