// EnduranceMap: the per-region (and derived per-line) endurance of a device.
//
// Max-WE assumes the endurance distribution parameters "can be obtained at
// the manufacture time" (§2.1) and that "the endurance of each region is
// constant" (§4.4): every line in a region shares the region's endurance.
// An optional per-line jitter is provided for robustness studies (how do the
// schemes behave when the manufacture-time map is imperfect?); it is off by
// default to match the paper's model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "nvm/endurance_model.h"
#include "nvm/geometry.h"
#include "util/rng.h"
#include "util/types.h"

namespace nvmsec {

/// Integer write budget of a line of endurance `e`: rounded to the nearest
/// write, and at least one. Device and the event engine both round here, so
/// their budgets agree bit for bit.
[[nodiscard]] inline WriteCount write_budget(Endurance e) {
  return static_cast<WriteCount>(std::llround(std::max(1.0, e)));
}

class EnduranceMap {
 public:
  /// Per-region endurances sampled from the Zhang&Li current model.
  static EnduranceMap from_model(const DeviceGeometry& geometry,
                                 const EnduranceModel& model, Rng& rng);

  /// The tractable linear model of §3.1 / §4.3: region endurances linearly
  /// spaced between `weakest` and `strongest`. `shuffled` randomizes which
  /// physical region gets which endurance (true matches real devices; false
  /// gives an address-ordered ramp convenient for tests).
  static EnduranceMap linear(const DeviceGeometry& geometry, Endurance weakest,
                             Endurance strongest, bool shuffled, Rng& rng);

  /// Every region has the same endurance (variation-free baseline).
  static EnduranceMap uniform(const DeviceGeometry& geometry,
                              Endurance endurance);

  /// Explicit per-region endurances (size must equal num_regions).
  EnduranceMap(const DeviceGeometry& geometry,
               std::vector<Endurance> region_endurance);

  /// Multiply every line's endurance by lognormal-ish jitter exp(sigma * Z),
  /// modelling intra-region cell variation the manufacture-time map cannot
  /// see. After this call line_endurance() != region_endurance().
  void apply_line_jitter(double sigma, Rng& rng);

  /// In-place resample from `model`: consumes exactly the RNG draws
  /// from_model() would and leaves the map equal to a freshly built one,
  /// but reuses the existing region storage (and clears any line jitter).
  /// The setup-amortization path for callers that build one map per seed
  /// in a tight loop (the fleet runner).
  void rebuild_from_model(const EnduranceModel& model, Rng& rng);

  /// Fault injection: overwrite one line's endurance (must be > 0). Used to
  /// model latent defects — stuck-at and early-death lines — that the
  /// manufacture-time characterization missed; the faulted copy of the map
  /// drives the device while schemes keep planning on the clean one.
  void set_line_endurance(PhysLineAddr line, Endurance endurance);

  /// Fault injection: multiply one region's endurance (and its lines', when
  /// per-line values exist) by `factor` > 0 — an endurance outlier.
  void scale_region_endurance(RegionId region, double factor);

  [[nodiscard]] const DeviceGeometry& geometry() const { return geometry_; }

  [[nodiscard]] Endurance region_endurance(RegionId region) const;
  [[nodiscard]] Endurance line_endurance(PhysLineAddr line) const;

  /// Sum of all line endurances = the ideal lifetime in writes (§3.1).
  [[nodiscard]] double ideal_lifetime() const { return ideal_lifetime_; }

  /// write_budget() of every line, converted to T, into `out` (one entry
  /// per line; throws std::invalid_argument on a size mismatch). A
  /// region-constant map rounds and converts once per region; per-line
  /// values (jitter, set_line_endurance) are rounded line by line.
  template <typename T>
  void fill_write_budgets(std::span<T> out) const {
    if (out.size() != geometry_.num_lines()) {
      throw std::invalid_argument(
          "EnduranceMap::fill_write_budgets: output size != num_lines");
    }
    if (!line_endurance_.empty()) {
      for (std::size_t l = 0; l < out.size(); ++l) {
        out[l] = static_cast<T>(write_budget(line_endurance_[l]));
      }
      return;
    }
    const std::uint64_t lpr = geometry_.lines_per_region();
    for (std::uint64_t r = 0; r < region_endurance_.size(); ++r) {
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(r * lpr), lpr,
                  static_cast<T>(write_budget(region_endurance_[r])));
    }
  }

  [[nodiscard]] Endurance min_line_endurance() const;
  [[nodiscard]] Endurance max_line_endurance() const;

  /// Region ids sorted by ascending region endurance (weakest first).
  /// Ties broken by region id so the order is deterministic.
  [[nodiscard]] std::vector<RegionId> regions_weakest_first() const;
  /// The same order written into `order`, reusing its storage.
  void regions_weakest_first(std::vector<RegionId>& order) const;

  /// Line addresses sorted by ascending line endurance (weakest first).
  [[nodiscard]] std::vector<PhysLineAddr> lines_weakest_first() const;

  [[nodiscard]] bool has_line_jitter() const { return !line_endurance_.empty(); }

 private:
  DeviceGeometry geometry_;
  std::vector<Endurance> region_endurance_;
  /// Empty unless apply_line_jitter() was called; then one entry per line.
  std::vector<Endurance> line_endurance_;
  double ideal_lifetime_{0};

  void recompute_ideal_lifetime();
};

}  // namespace nvmsec
