// Post-run wear diagnostics.
//
// Lifetime is the headline number; *why* a device died is in the wear
// pattern. This module summarizes a Device's end state: how much of the
// total endurance was harvested, how unequally wear landed relative to
// each line's budget (Gini coefficient of utilization), and per-region
// utilization — the quantities that make wear-leveling quality and
// Max-WE's "maximize the weak lines' endurance" directly observable.
#pragma once

#include <vector>

#include "nvm/device.h"

namespace nvmsec {

struct WearReport {
  /// Fraction of the device's total write budget actually consumed —
  /// "endurance harvest". The ideal scenario harvests 1.0.
  double harvest_fraction{0};
  /// Gini coefficient of per-line utilization (writes / budget): 0 = all
  /// lines equally utilized, ~1 = all wear on a vanishing few lines.
  double utilization_gini{0};
  /// Per-region mean utilization, region order.
  std::vector<double> region_utilization;
  /// Lines fully worn out.
  std::uint64_t worn_out_lines{0};
  /// Utilization of the most- and least-utilized lines.
  double max_line_utilization{0};
  double min_line_utilization{0};
};

/// Summarize the wear state of `device` (valid at any point in a run).
WearReport analyze_wear(const Device& device);

}  // namespace nvmsec
