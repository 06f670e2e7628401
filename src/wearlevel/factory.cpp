#include <algorithm>
#include <stdexcept>

#include "wearlevel/bwl.h"
#include "wearlevel/none.h"
#include "wearlevel/pcm_s.h"
#include "wearlevel/age_based.h"
#include "wearlevel/security_refresh.h"
#include "wearlevel/start_gap.h"
#include "wearlevel/twl.h"
#include "wearlevel/wawl.h"
#include "wearlevel/wear_leveler.h"

namespace nvmsec {

namespace {

std::uint64_t resolve_group_lines(std::uint64_t working_lines,
                                  const WearLevelerParams& params) {
  std::uint64_t g = params.group_lines;
  if (g == 0) g = std::max<std::uint64_t>(1, working_lines / 128);
  // Groups must tile the working set exactly; fall back to the largest
  // divisor <= requested size so odd working-set sizes still work.
  while (g > 1 && working_lines % g != 0) --g;
  return g;
}

std::uint64_t resolve_subregions(std::uint64_t working_lines,
                                 const WearLevelerParams& params) {
  // TLSR's outer level: aim for sub-regions of tlsr_subregion_lines lines,
  // shrinking the count until it tiles the working set.
  const std::uint64_t target =
      std::max<std::uint64_t>(1, working_lines / std::max<std::uint64_t>(
                                                     2, params.tlsr_subregion_lines));
  for (std::uint64_t s = target; s > 1; --s) {
    if (working_lines % s == 0 && working_lines / s >= 2) return s;
  }
  return 1;
}

}  // namespace

std::unique_ptr<WearLeveler> make_wear_leveler(const std::string& name,
                                               std::uint64_t working_lines,
                                               const EnduranceView& endurance,
                                               const WearLevelerParams& params,
                                               Rng& rng) {
  if (name == "none") {
    return std::make_unique<NoWearLeveling>(working_lines);
  }
  if (name == "startgap") {
    return std::make_unique<StartGap>(working_lines, params.swap_interval);
  }
  if (name == "tlsr") {
    return std::make_unique<SecurityRefresh>(
        working_lines, params.swap_interval,
        resolve_subregions(working_lines, params), rng);
  }
  if (name == "pcms") {
    return std::make_unique<PcmS>(working_lines, params.swap_interval);
  }
  if (name == "bwl") {
    return std::make_unique<Bwl>(working_lines, endurance,
                                 resolve_group_lines(working_lines, params),
                                 kBwlClasses, params.swap_interval, kBwlBeta);
  }
  if (name == "agebased") {
    // Bucket width sized so benign skew separates lines into a few buckets
    // within one remap epoch.
    const std::uint64_t width =
        std::max<std::uint64_t>(1, params.swap_interval / 4);
    return std::make_unique<AgeBased>(working_lines, /*buckets=*/8,
                                      params.swap_interval, width);
  }
  if (name == "twl") {
    std::uint64_t group = resolve_group_lines(working_lines, params);
    // Bonding needs an even group count; halve the group size if necessary.
    if ((working_lines / group) % 2 != 0 && group % 2 == 0) group /= 2;
    return std::make_unique<Twl>(working_lines, endurance, group,
                                 params.swap_interval);
  }
  if (name == "wawl") {
    return std::make_unique<Wawl>(working_lines, endurance,
                                  resolve_group_lines(working_lines, params),
                                  params.swap_interval, kWawlAlpha);
  }
  throw std::invalid_argument("make_wear_leveler: unknown scheme '" + name +
                              "'");
}

const std::vector<std::string>& paper_wear_levelers() {
  static const std::vector<std::string> kSchemes = {"tlsr", "pcms", "bwl",
                                                    "wawl"};
  return kSchemes;
}

}  // namespace nvmsec
