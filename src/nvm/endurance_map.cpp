#include "nvm/endurance_map.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace nvmsec {

EnduranceMap EnduranceMap::from_model(const DeviceGeometry& geometry,
                                      const EnduranceModel& model, Rng& rng) {
  return EnduranceMap(geometry,
                      model.sample_region_endurances(geometry.num_regions(), rng));
}

EnduranceMap EnduranceMap::linear(const DeviceGeometry& geometry,
                                  Endurance weakest, Endurance strongest,
                                  bool shuffled, Rng& rng) {
  if (weakest <= 0 || strongest < weakest) {
    throw std::invalid_argument(
        "EnduranceMap::linear: need 0 < weakest <= strongest");
  }
  const std::uint64_t r = geometry.num_regions();
  std::vector<Endurance> endurances(r);
  for (std::uint64_t i = 0; i < r; ++i) {
    const double frac =
        r == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(r - 1);
    endurances[i] = weakest + (strongest - weakest) * frac;
  }
  if (shuffled) rng.shuffle(endurances);
  return EnduranceMap(geometry, std::move(endurances));
}

EnduranceMap EnduranceMap::uniform(const DeviceGeometry& geometry,
                                   Endurance endurance) {
  if (endurance <= 0) {
    throw std::invalid_argument("EnduranceMap::uniform: endurance <= 0");
  }
  return EnduranceMap(geometry,
                      std::vector<Endurance>(geometry.num_regions(), endurance));
}

EnduranceMap::EnduranceMap(const DeviceGeometry& geometry,
                           std::vector<Endurance> region_endurance)
    : geometry_(geometry), region_endurance_(std::move(region_endurance)) {
  if (region_endurance_.size() != geometry_.num_regions()) {
    throw std::invalid_argument(
        "EnduranceMap: endurance vector size != num_regions");
  }
  for (Endurance e : region_endurance_) {
    if (!(e > 0) || !std::isfinite(e)) {
      throw std::invalid_argument(
          "EnduranceMap: endurances must be finite and > 0");
    }
  }
  recompute_ideal_lifetime();
}

void EnduranceMap::rebuild_from_model(const EnduranceModel& model, Rng& rng) {
  // Mirrors from_model(): one sample_current() draw per region, in region
  // order, validated like the constructor would.
  for (Endurance& e : region_endurance_) {
    e = model.endurance_for_current(model.sample_current(rng));
    if (!(e > 0) || !std::isfinite(e)) {
      throw std::invalid_argument(
          "EnduranceMap: endurances must be finite and > 0");
    }
  }
  line_endurance_.clear();
  recompute_ideal_lifetime();
}

void EnduranceMap::apply_line_jitter(double sigma, Rng& rng) {
  if (sigma < 0) {
    throw std::invalid_argument("apply_line_jitter: sigma must be >= 0");
  }
  line_endurance_.resize(geometry_.num_lines());
  for (std::uint64_t i = 0; i < geometry_.num_lines(); ++i) {
    const Endurance base =
        region_endurance_[i / geometry_.lines_per_region()];
    line_endurance_[i] = base * std::exp(sigma * rng.normal());
  }
  recompute_ideal_lifetime();
}

void EnduranceMap::set_line_endurance(PhysLineAddr line, Endurance endurance) {
  if (!geometry_.contains(line)) {
    throw std::out_of_range("set_line_endurance: line out of range");
  }
  if (!(endurance > 0) || !std::isfinite(endurance)) {
    throw std::invalid_argument(
        "set_line_endurance: endurance must be finite and > 0");
  }
  if (line_endurance_.empty()) {
    // Materialize per-line values from the region-constant model first.
    line_endurance_.resize(geometry_.num_lines());
    for (std::uint64_t i = 0; i < geometry_.num_lines(); ++i) {
      line_endurance_[i] = region_endurance_[i / geometry_.lines_per_region()];
    }
  }
  line_endurance_[line.value()] = endurance;
  recompute_ideal_lifetime();
}

void EnduranceMap::scale_region_endurance(RegionId region, double factor) {
  if (region.value() >= region_endurance_.size()) {
    throw std::out_of_range("scale_region_endurance: region out of range");
  }
  if (!(factor > 0) || !std::isfinite(factor)) {
    throw std::invalid_argument(
        "scale_region_endurance: factor must be finite and > 0");
  }
  region_endurance_[region.value()] *= factor;
  if (!line_endurance_.empty()) {
    const std::uint64_t lpr = geometry_.lines_per_region();
    for (std::uint64_t k = 0; k < lpr; ++k) {
      line_endurance_[region.value() * lpr + k] *= factor;
    }
  }
  recompute_ideal_lifetime();
}

Endurance EnduranceMap::region_endurance(RegionId region) const {
  if (region.value() >= region_endurance_.size()) {
    throw std::out_of_range("region_endurance: region out of range");
  }
  return region_endurance_[region.value()];
}

Endurance EnduranceMap::line_endurance(PhysLineAddr line) const {
  if (!geometry_.contains(line)) {
    throw std::out_of_range("line_endurance: line out of range");
  }
  if (!line_endurance_.empty()) return line_endurance_[line.value()];
  return region_endurance_[line.value() / geometry_.lines_per_region()];
}

Endurance EnduranceMap::min_line_endurance() const {
  if (!line_endurance_.empty()) {
    return *std::min_element(line_endurance_.begin(), line_endurance_.end());
  }
  return *std::min_element(region_endurance_.begin(), region_endurance_.end());
}

Endurance EnduranceMap::max_line_endurance() const {
  if (!line_endurance_.empty()) {
    return *std::max_element(line_endurance_.begin(), line_endurance_.end());
  }
  return *std::max_element(region_endurance_.begin(), region_endurance_.end());
}

std::vector<RegionId> EnduranceMap::regions_weakest_first() const {
  std::vector<RegionId> order;
  regions_weakest_first(order);
  return order;
}

void EnduranceMap::regions_weakest_first(std::vector<RegionId>& order) const {
  order.resize(geometry_.num_regions());
  for (std::uint64_t i = 0; i < order.size(); ++i) order[i] = RegionId{i};
  // Ties are broken by id, so the order is total and std::sort needs no
  // stable merge buffer to be deterministic.
  std::sort(order.begin(), order.end(), [&](RegionId a, RegionId b) {
    const Endurance ea = region_endurance_[a.value()];
    const Endurance eb = region_endurance_[b.value()];
    if (ea != eb) return ea < eb;
    return a.value() < b.value();
  });
}

std::vector<PhysLineAddr> EnduranceMap::lines_weakest_first() const {
  std::vector<PhysLineAddr> order(geometry_.num_lines());
  for (std::uint64_t i = 0; i < order.size(); ++i) {
    order[i] = PhysLineAddr{i};
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](PhysLineAddr a, PhysLineAddr b) {
                     const Endurance ea = line_endurance(a);
                     const Endurance eb = line_endurance(b);
                     if (ea != eb) return ea < eb;
                     return a.value() < b.value();
                   });
  return order;
}

void EnduranceMap::recompute_ideal_lifetime() {
  double total = 0;
  if (!line_endurance_.empty()) {
    for (Endurance e : line_endurance_) total += e;
  } else {
    for (Endurance e : region_endurance_) {
      total += e * static_cast<double>(geometry_.lines_per_region());
    }
  }
  ideal_lifetime_ = total;
}

}  // namespace nvmsec
