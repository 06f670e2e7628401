// Decorator fidelity test: at small sizes, every workload's devices run
// through the decorated pipeline must give run_experiment's results bit
// for bit, and the decorated methods the engines batch on must actually
// be exercised. The traced and timed workload runs are then smoke-tested
// end to end at the same sizes.
//
// Exit code 0 on success; failures are listed on stderr.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "traced.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

std::vector<nvmsec::ExperimentConfig> small_configs(
    const perfbench::Workload& w) {
  if (!w.fleet) return perfbench::experiment_configs(w, w.default_seed, true);
  const nvmsec::FleetSpec spec = perfbench::fleet_spec(w.default_seed, true);
  std::vector<nvmsec::ExperimentConfig> configs;
  for (std::uint64_t d = 0; d < spec.devices; ++d) {
    configs.push_back(perfbench::fleet_device_config(spec, d));
  }
  return configs;
}

}  // namespace

int main() {
  for (const perfbench::Workload& w : perfbench::workloads()) {
    perfbench::LayerStats s;
    for (const nvmsec::ExperimentConfig& c : small_configs(w)) {
      const std::string device = w.name + ": decorated " + c.attack + "/" +
                                 c.wear_leveler + "/" + c.spare_scheme +
                                 " seed " + std::to_string(c.seed);
      try {
        const nvmsec::LifetimeResult want = nvmsec::run_experiment(c);
        const nvmsec::LifetimeResult got = perfbench::run_traced(c, s);
        expect(perfbench::same_result(want, got),
               device + " differs from run_experiment");
      } catch (const std::exception& e) {
        expect(false, device + " threw: " + e.what());
      }
    }
    const std::string n = w.name + ": ";
    // Every workload rescues through a mirrored spare-scheme epoch. On the
    // stochastic workloads, whose engine caches resolves, a decorator that
    // did not mirror it would serve stale lines and break the bit-identity
    // above.
    expect(s.spare_rescue.calls > 0, n + "no on_wear_out calls");
    expect(s.spare_epoch_bumps > 0, n + "no mirrored mapping-epoch bumps");
    expect(s.spare_resolve.calls > 0, n + "no resolve calls");
    if (w.name == "fig8_bpa_maxwe" || w.name == "zipf_counts_64k") {
      expect(s.attack_contract_calls > 0, n + "batch_contract not called");
      expect(s.spare_cacheable_calls > 0, n + "resolve_cacheable not called");
      expect(s.wl_until_remap_calls > 0, n + "writes_until_remap not called");
      expect(s.wl_commit_calls > 0, n + "commit_batched_writes not called");
      expect(s.wl_batched_writes > 0, n + "no batched writes committed");
    }
    if (w.name == "fig8_bpa_maxwe") {
      expect(s.attack_run.calls > 0, n + "next_run not called");
      expect(s.wl_epoch_calls > 0, n + "wear-leveler mapping_epoch not read");
      expect(s.wl_on_write.calls > 0, n + "on_write not called");
      expect(s.wl_remaps > 0, n + "no wear-leveler remaps");
    }
    if (w.name == "zipf_counts_64k") {
      expect(s.attack_counts.calls > 0, n + "next_counts not called");
    }
    if (w.name == "tbl_uaa_1gb" || w.fleet) {
      expect(s.event_run_s > 0 && s.engine_run_s == 0,
             n + "expected event-engine devices only");
    }

    // The workload's own traced and timed runs, end to end.
    try {
      const perfbench::Outcome traced =
          perfbench::run_traced_workload(w, w.default_seed + 1, ".", true);
      expect(traced.correct && traced.failed == 0 && traced.attempted > 0,
             n + "traced run failed its checks");
      const perfbench::Outcome timed =
          perfbench::run_timed(w, w.default_seed + 1, 0.1, ".", true);
      expect(timed.correct && timed.failed == 0 && timed.attempted > 0,
             n + "timed run failed its checks");
    } catch (const std::exception& e) {
      expect(false, n + "workload run threw: " + e.what());
    }
  }
  if (failures == 0) std::printf("perfbench_fidelity: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
