#include "core/maxwe.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nvm/device.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nvmsec {

void MaxWeParams::validate() const {
  if (spare_fraction < 0.0 || spare_fraction >= 1.0) {
    throw std::invalid_argument("MaxWeParams: spare_fraction must be in [0,1)");
  }
  if (swr_fraction < 0.0 || swr_fraction > 1.0) {
    throw std::invalid_argument("MaxWeParams: swr_fraction must be in [0,1]");
  }
}

MaxWe::MaxWe(std::shared_ptr<const EnduranceMap> endurance, MaxWeParams params)
    : endurance_(std::move(endurance)),
      params_(params),
      rmt_(endurance_->geometry().num_regions(),
           endurance_->geometry().lines_per_region()),
      lmt_(0, endurance_->geometry().num_lines()) {
  params_.validate();
  if (endurance_->geometry().num_lines() > UINT32_MAX) {
    throw std::invalid_argument("MaxWe: device exceeds 2^32 lines");
  }
  build_allocation();
}

void MaxWe::build_allocation() {
  rmt_.clear();
  const DeviceGeometry& geom = endurance_->geometry();
  const std::uint64_t num_regions = geom.num_regions();
  const std::uint64_t lpr = geom.lines_per_region();

  const auto n_spare = static_cast<std::uint64_t>(
      std::llround(params_.spare_fraction * static_cast<double>(num_regions)));
  const auto n_swr = static_cast<std::uint64_t>(
      std::llround(params_.swr_fraction * static_cast<double>(n_spare)));
  const std::uint64_t n_asr = n_spare - n_swr;

  // SWRs need an equal number of RWRs left in the user space, and at least
  // one region must remain purely user capacity.
  if (2 * n_swr + n_asr >= num_regions) {
    throw std::invalid_argument(
        "MaxWe: spare configuration leaves no user capacity");
  }

  endurance_->regions_weakest_first(region_buffer_);
  const std::vector<RegionId>& order = region_buffer_;
  spare_region_.assign(num_regions, false);
  if (params_.selection == SpareSelectionPolicy::kWeakPriority) {
    // Weak-priority: carve the spare roles off the weak end of the
    // manufacture-time endurance ordering (Fig. 3's worked example).
    swrs_.assign(order.begin(),
                 order.begin() + static_cast<std::ptrdiff_t>(n_swr));
    rwrs_.assign(order.begin() + static_cast<std::ptrdiff_t>(n_swr),
                 order.begin() + static_cast<std::ptrdiff_t>(2 * n_swr));
    asrs_.assign(order.begin() + static_cast<std::ptrdiff_t>(2 * n_swr),
                 order.begin() + static_cast<std::ptrdiff_t>(2 * n_swr + n_asr));
  } else {
    // Ablation baseline: spares picked uniformly at random (traditional
    // schemes' behaviour). The SWR/ASR split and the RWR choice still use
    // the endurance ordering so only the *selection* differs.
    Rng selection_rng(params_.selection_seed);
    std::vector<RegionId> spares;
    for (std::uint64_t r : selection_rng.sample_without_replacement(
             num_regions, n_swr + n_asr)) {
      spares.push_back(RegionId{r});
    }
    std::sort(spares.begin(), spares.end(), [&](RegionId a, RegionId b) {
      const Endurance ea = endurance_->region_endurance(a);
      const Endurance eb = endurance_->region_endurance(b);
      if (ea != eb) return ea < eb;
      return a.value() < b.value();
    });
    swrs_.assign(spares.begin(),
                 spares.begin() + static_cast<std::ptrdiff_t>(n_swr));
    asrs_.assign(spares.begin() + static_cast<std::ptrdiff_t>(n_swr),
                 spares.end());
    for (RegionId r : spares) spare_region_[r.value()] = true;
    rwrs_.clear();
    for (RegionId r : order) {
      if (rwrs_.size() == n_swr) break;
      if (!spare_region_[r.value()]) rwrs_.push_back(r);
    }
  }

  for (RegionId r : swrs_) spare_region_[r.value()] = true;
  for (RegionId r : asrs_) spare_region_[r.value()] = true;

  user_regions_.clear();
  for (std::uint64_t r = 0; r < num_regions; ++r) {
    if (!spare_region_[r]) user_regions_.push_back(RegionId{r});
  }
  user_lines_ = user_regions_.size() * lpr;

  // rwrs_ and swrs_ are both ascending by endurance. Weak-strong matching
  // pairs the weakest RWR with the strongest SWR (walk the SWR slice
  // backwards); the identity-matching ablation pairs them in like order.
  for (std::uint64_t i = 0; i < n_swr; ++i) {
    const RegionId sra = params_.matching == MatchingPolicy::kWeakStrong
                             ? swrs_[n_swr - 1 - i]
                             : swrs_[i];
    rmt_.add_pair(/*pra=*/rwrs_[i], sra);
  }

  // Additional spare pool, strongest line first (§4.2: "allocates the
  // strongest spare line"). Regions have constant endurance, so order the
  // regions strongest-first (in the region order's storage, which is done
  // with) and take their lines in address order.
  std::vector<RegionId>& asr_by_strength = region_buffer_;
  asr_by_strength.assign(asrs_.begin(), asrs_.end());
  std::sort(asr_by_strength.begin(), asr_by_strength.end(),
            [&](RegionId a, RegionId b) {
              const Endurance ea = endurance_->region_endurance(a);
              const Endurance eb = endurance_->region_endurance(b);
              if (ea != eb) return ea > eb;
              return a.value() < b.value();
            });
  asr_pool_.clear();
  asr_pool_.reserve(n_asr * lpr);
  for (RegionId r : asr_by_strength) {
    for (std::uint64_t k = 0; k < lpr; ++k) {
      asr_pool_.push_back(static_cast<std::uint32_t>(
          geom.line_at(r, LineInRegion{k}).value()));
    }
  }
  lmt_.reset(asr_pool_.size());
  next_asr_ = 0;

  backing_.resize(user_lines_);
  reset_backing();
}

void MaxWe::reset_backing() {
  // Working index i is line i % lpr of user region i / lpr (working_line),
  // and a region's lines are consecutive addresses.
  const DeviceGeometry& geom = endurance_->geometry();
  const auto lpr = static_cast<std::ptrdiff_t>(geom.lines_per_region());
  auto out = backing_.begin();
  for (const RegionId r : user_regions_) {
    std::iota(out, out + lpr,
              static_cast<std::uint32_t>(
                  geom.line_at(r, LineInRegion{0}).value()));
    out += lpr;
  }
}

PhysLineAddr MaxWe::working_line(std::uint64_t idx) const {
  if (idx >= user_lines_) {
    throw std::out_of_range("MaxWe::working_line: index out of range");
  }
  const std::uint64_t lpr = endurance_->geometry().lines_per_region();
  return endurance_->geometry().line_at(user_regions_[idx / lpr],
                                        LineInRegion{idx % lpr});
}

PhysLineAddr MaxWe::resolve(std::uint64_t idx) {
  if (idx >= user_lines_) {
    throw std::out_of_range("MaxWe::resolve: index out of range");
  }
  return PhysLineAddr{backing_[idx]};
}

bool MaxWe::allocate_from_asr(std::uint64_t idx, PhysLineAddr pla) {
  if (next_asr_ >= asr_pool_.size()) {
    if (obs_.events != nullptr) {
      obs_.events->emit("pool_exhausted",
                        {{"scheme", "maxwe"},
                         {"working_index", static_cast<double>(idx)},
                         {"raw_line", static_cast<double>(pla.value())}});
    }
    return false;  // no spare lines left: device worn out (§4.2)
  }
  const PhysLineAddr sla{asr_pool_[next_asr_++]};
  const std::optional<PhysLineAddr> evicted = lmt_.insert_or_replace(pla, sla);
  backing_[idx] = static_cast<std::uint32_t>(sla.value());
  ++stats_.replacements;
  if (asr_allocs_ != nullptr) asr_allocs_->inc();
  if (obs_.events != nullptr) {
    const double spare_region = static_cast<double>(
        endurance_->geometry().region_of(sla).value());
    if (evicted.has_value()) {
      // The line that died was itself an earlier spare (LMT entry or the
      // SWR partner); name it so the report can chain rescues.
      obs_.events->emit(
          "asr_alloc",
          {{"working_index", static_cast<double>(idx)},
           {"raw_line", static_cast<double>(pla.value())},
           {"spare_line", static_cast<double>(sla.value())},
           {"spare_region", spare_region},
           {"replaces_spare", static_cast<double>(evicted->value())},
           {"pool_remaining", static_cast<double>(asr_pool_remaining())}});
    } else {
      obs_.events->emit(
          "asr_alloc",
          {{"working_index", static_cast<double>(idx)},
           {"raw_line", static_cast<double>(pla.value())},
           {"spare_line", static_cast<double>(sla.value())},
           {"spare_region", spare_region},
           {"pool_remaining", static_cast<double>(asr_pool_remaining())}});
    }
  }
  if (obs_.trace != nullptr) {
    obs_.trace->instant(
        "maxwe.asr_alloc",
        {{"working_index", static_cast<double>(idx)},
         {"original_line", static_cast<double>(pla.value())},
         {"spare_line", static_cast<double>(sla.value())},
         {"pool_remaining", static_cast<double>(asr_pool_remaining())}});
  }
  if (obs_.metrics != nullptr) publish_table_gauges();
  return true;
}

bool MaxWe::on_wear_out(std::uint64_t idx) {
  if (idx >= user_lines_) {
    throw std::out_of_range("MaxWe::on_wear_out: index out of range");
  }
  ++stats_.line_deaths;
  bump_mapping_epoch();
  const DeviceGeometry& geom = endurance_->geometry();
  const PhysLineAddr pla = working_line(idx);
  const PhysLineAddr worn{backing_[idx]};

  if (worn == pla) {
    // First failure of this user line.
    const RegionId region = geom.region_of(pla);
    if (rmt_.has_region(region)) {
      // RWR line: flip the wear-out tag and redirect to the permanently
      // paired line of the matched SWR.
      const LineInRegion offset = geom.offset_in_region(pla);
      rmt_.set_wear_out_tag(region, offset);
      const PhysLineAddr spare = geom.line_at(*rmt_.spare_of(region), offset);
      backing_[idx] = static_cast<std::uint32_t>(spare.value());
      ++stats_.replacements;
      if (rmt_redirects_ != nullptr) rmt_redirects_->inc();
      if (obs_.events != nullptr) {
        obs_.events->emit(
            "rmt_redirect",
            {{"region", static_cast<double>(region.value())},
             {"offset", static_cast<double>(offset.value())},
             {"spare_region",
              static_cast<double>(rmt_.spare_of(region)->value())},
             {"raw_line", static_cast<double>(pla.value())},
             {"spare_line", static_cast<double>(spare.value())}});
      }
      if (obs_.trace != nullptr) {
        obs_.trace->instant(
            "maxwe.rmt_redirect",
            {{"region", static_cast<double>(region.value())},
             {"offset", static_cast<double>(offset.value())},
             {"spare_region",
              static_cast<double>(rmt_.spare_of(region)->value())}});
      }
      return true;
    }
    return allocate_from_asr(idx, pla);
  }
  // A replacement line died (the SWR partner or an LMT spare): fall back to
  // a fresh additional spare, replacing any existing LMT entry for pla.
  return allocate_from_asr(idx, pla);
}

PhysLineAddr MaxWe::translate_read(PhysLineAddr pla) const {
  const DeviceGeometry& geom = endurance_->geometry();
  if (!geom.contains(pla)) {
    throw std::out_of_range("MaxWe::translate_read: address out of range");
  }
  if (const auto sla = lmt_.lookup(pla)) return *sla;
  const RegionId region = geom.region_of(pla);
  if (rmt_.has_region(region)) {
    const LineInRegion offset = geom.offset_in_region(pla);
    if (rmt_.wear_out_tag(region, offset)) {
      return geom.line_at(*rmt_.spare_of(region), offset);
    }
  }
  return pla;
}

ScrubReport MaxWe::scrub(const Device& device) {
  ScrubReport report;
  report.rmt_corrupt_detected = rmt_.verify().size();
  report.lmt_corrupt_detected = lmt_.verify().size();

  const DeviceGeometry& geom = endurance_->geometry();
  const std::uint64_t lpr = geom.lines_per_region();
  const std::uint64_t n_swr = swrs_.size();

  // Rebuild the RMT from ground truth. The permanent pairing is a pure
  // function of the boot-time region roles (themselves derived from the
  // manufacture-time endurance map), and a wear-out tag is set exactly when
  // the corresponding RWR line is worn out on the device.
  RegionMappingTable fresh_rmt(geom.num_regions(), lpr);
  for (std::uint64_t i = 0; i < n_swr; ++i) {
    const RegionId sra = params_.matching == MatchingPolicy::kWeakStrong
                             ? swrs_[n_swr - 1 - i]
                             : swrs_[i];
    fresh_rmt.add_pair(rwrs_[i], sra);
  }
  for (RegionId pra : rwrs_) {
    for (std::uint64_t k = 0; k < lpr; ++k) {
      if (device.is_worn_out(geom.line_at(pra, LineInRegion{k}))) {
        fresh_rmt.set_wear_out_tag(pra, LineInRegion{k});
      }
    }
  }
  for (RegionId pra : rwrs_) {
    if (rmt_.spare_of(pra) != fresh_rmt.spare_of(pra)) {
      ++report.entries_repaired;
    }
    for (std::uint64_t k = 0; k < lpr; ++k) {
      if (rmt_.wear_out_tag(pra, LineInRegion{k}) !=
          fresh_rmt.wear_out_tag(pra, LineInRegion{k})) {
        ++report.entries_repaired;
      }
    }
  }

  // Rebuild the LMT from the current backing lines (modelled as FREE-p
  // style back-pointers stored with the data on the device): a user line
  // has an LMT entry exactly when its backing is neither the original line
  // nor the RMT-paired spare slot.
  LineMappingTable fresh_lmt(asr_pool_.size(), geom.num_lines());
  for (std::uint64_t idx = 0; idx < user_lines_; ++idx) {
    const PhysLineAddr pla = working_line(idx);
    const PhysLineAddr current{backing_[idx]};
    if (current == pla) continue;
    const RegionId region = geom.region_of(pla);
    if (fresh_rmt.has_region(region)) {
      const LineInRegion offset = geom.offset_in_region(pla);
      if (fresh_rmt.wear_out_tag(region, offset) &&
          current == geom.line_at(*fresh_rmt.spare_of(region), offset)) {
        continue;  // RMT redirect; no line-level entry
      }
    }
    fresh_lmt.insert_or_replace(pla, current);
  }
  for (PhysLineAddr pla : fresh_lmt.sorted_keys()) {
    if (lmt_.lookup(pla) != fresh_lmt.lookup(pla)) ++report.entries_repaired;
  }
  for (PhysLineAddr pla : lmt_.sorted_keys()) {
    if (!fresh_lmt.lookup(pla).has_value()) ++report.entries_repaired;
  }

  rmt_ = std::move(fresh_rmt);
  lmt_ = std::move(fresh_lmt);
  bump_mapping_epoch();

  if (obs_.events != nullptr) {
    obs_.events->emit(
        "scrub",
        {{"rmt_corrupt", static_cast<double>(report.rmt_corrupt_detected)},
         {"lmt_corrupt", static_cast<double>(report.lmt_corrupt_detected)},
         {"repaired", static_cast<double>(report.entries_repaired)}});
  }
  if (obs_.trace != nullptr) {
    obs_.trace->instant(
        "maxwe.scrub",
        {{"rmt_corrupt", static_cast<double>(report.rmt_corrupt_detected)},
         {"lmt_corrupt", static_cast<double>(report.lmt_corrupt_detected)},
         {"repaired", static_cast<double>(report.entries_repaired)}});
  }
  if (obs_.metrics != nullptr) publish_table_gauges();
  return report;
}

void MaxWe::save_state(StateWriter& w) const {
  w.u64(next_asr_);
  w.u64(stats_.line_deaths);
  w.u64(stats_.replacements);
  w.vec_u32(backing_);
  // Wear-out tags, one bit-vector per permanent pair in pairing order.
  const std::uint64_t lpr = endurance_->geometry().lines_per_region();
  w.u64(rmt_.pairs().size());
  for (const auto& [pra, sra] : rmt_.pairs()) {
    std::vector<bool> wot(lpr);
    for (std::uint64_t k = 0; k < lpr; ++k) {
      wot[k] = rmt_.wear_out_tag(pra, LineInRegion{k});
    }
    w.vec_bool(wot);
  }
  // LMT entries in deterministic key order.
  const auto keys = lmt_.sorted_keys();
  w.u64(keys.size());
  for (PhysLineAddr pla : keys) {
    w.u64(pla.value());
    w.u64(lmt_.lookup(pla)->value());
  }
}

Status MaxWe::load_state(StateReader& r) {
  std::uint64_t next_asr = 0, line_deaths = 0, replacements = 0;
  if (Status st = r.u64(next_asr); !st.ok()) return st;
  if (Status st = r.u64(line_deaths); !st.ok()) return st;
  if (Status st = r.u64(replacements); !st.ok()) return st;
  std::vector<std::uint32_t> backing;
  if (Status st = r.vec_u32(backing); !st.ok()) return st;
  if (backing.size() != user_lines_) {
    return Status::corruption("maxwe state: backing size " +
                              std::to_string(backing.size()) +
                              " != user lines " + std::to_string(user_lines_));
  }
  if (next_asr > asr_pool_.size()) {
    return Status::corruption("maxwe state: next_asr " +
                              std::to_string(next_asr) + " > pool size " +
                              std::to_string(asr_pool_.size()));
  }
  const std::uint64_t num_lines = endurance_->geometry().num_lines();
  for (std::uint32_t b : backing) {
    if (b >= num_lines) {
      return Status::corruption("maxwe state: backing line out of range");
    }
  }

  std::uint64_t num_pairs = 0;
  if (Status st = r.u64(num_pairs); !st.ok()) return st;
  if (num_pairs != rmt_.pairs().size()) {
    return Status::corruption(
        "maxwe state: RMT pair count " + std::to_string(num_pairs) +
        " != configured " + std::to_string(rmt_.pairs().size()));
  }
  const std::uint64_t lpr = endurance_->geometry().lines_per_region();
  std::vector<std::vector<bool>> tags(num_pairs);
  for (auto& wot : tags) {
    if (Status st = r.vec_bool(wot); !st.ok()) return st;
    if (wot.size() != lpr) {
      return Status::corruption("maxwe state: wot vector size mismatch");
    }
  }

  std::uint64_t num_lmt = 0;
  if (Status st = r.u64(num_lmt); !st.ok()) return st;
  if (num_lmt > lmt_.capacity()) {
    return Status::corruption("maxwe state: LMT entry count " +
                              std::to_string(num_lmt) + " > capacity " +
                              std::to_string(lmt_.capacity()));
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(num_lmt);
  for (auto& [pla, sla] : entries) {
    if (Status st = r.u64(pla); !st.ok()) return st;
    if (Status st = r.u64(sla); !st.ok()) return st;
    if (pla >= num_lines || sla >= num_lines) {
      return Status::corruption("maxwe state: LMT address out of range");
    }
  }

  // All input validated; apply.
  reset();
  next_asr_ = next_asr;
  stats_.line_deaths = line_deaths;
  stats_.replacements = replacements;
  for (std::uint64_t i = 0; i < user_lines_; ++i) backing_[i] = backing[i];
  for (std::uint64_t p = 0; p < num_pairs; ++p) {
    const RegionId pra = rmt_.pairs()[p].first;
    for (std::uint64_t k = 0; k < lpr; ++k) {
      if (tags[p][k]) rmt_.set_wear_out_tag(pra, LineInRegion{k});
    }
  }
  for (const auto& [pla, sla] : entries) {
    lmt_.insert_or_replace(PhysLineAddr{pla}, PhysLineAddr{sla});
  }
  return Status{};
}

SpareSchemeStats MaxWe::stats() const {
  SpareSchemeStats s = stats_;
  s.spares_remaining = asr_pool_remaining();
  s.lmt_entries = lmt_.size();
  s.rmt_entries = rmt_.size();
  return s;
}

std::uint64_t MaxWe::mapping_overhead_bits() const {
  return rmt_.storage_bits() + lmt_.storage_bits();
}

bool MaxWe::rebind(const std::shared_ptr<const EnduranceMap>& endurance,
                   Rng& rng) {
  (void)rng;  // MaxWe construction consumes no RNG draws
  if (endurance == nullptr) return false;
  const DeviceGeometry& old_geom = endurance_->geometry();
  const DeviceGeometry& new_geom = endurance->geometry();
  if (new_geom.num_lines() != old_geom.num_lines() ||
      new_geom.num_regions() != old_geom.num_regions()) {
    return false;
  }
  endurance_ = endurance;
  // Fresh boot state, exactly as the constructor would leave it: tables
  // cleared in place (build_allocation re-derives the RMT pairing and
  // re-provisions the LMT), zero stats, detached observer.
  stats_ = {};
  obs_ = Observer{};
  rmt_redirects_ = nullptr;
  asr_allocs_ = nullptr;
  build_allocation();
  bump_mapping_epoch();
  return true;
}

void MaxWe::reset() {
  bump_mapping_epoch();
  stats_ = {};
  rmt_.reset_tags();
  lmt_.clear();
  next_asr_ = 0;
  reset_backing();
}

void MaxWe::set_observer(const Observer& obs) {
  obs_ = obs;
  rmt_redirects_ = nullptr;
  asr_allocs_ = nullptr;
  if (obs.metrics != nullptr) {
    rmt_redirects_ = &obs.metrics->counter("maxwe.rmt_redirects");
    asr_allocs_ = &obs.metrics->counter("maxwe.asr_allocs");
    obs.metrics->gauge("maxwe.user_lines")
        .set(static_cast<double>(user_lines_));
    obs.metrics->gauge("maxwe.asr_pool_size")
        .set(static_cast<double>(asr_pool_.size()));
    publish_table_gauges();
  }
  if (obs.trace != nullptr) {
    // Replay the boot-time weak-strong matching so the trace is
    // self-contained: one pairing event per permanent (RWR -> SWR) pair.
    for (RegionId rwr : rwrs_) {
      obs.trace->instant(
          "maxwe.pair",
          {{"rwr_region", static_cast<double>(rwr.value())},
           {"swr_region", static_cast<double>(rmt_.spare_of(rwr)->value())},
           {"rwr_endurance", endurance_->region_endurance(rwr)},
           {"swr_endurance",
            endurance_->region_endurance(*rmt_.spare_of(rwr))}});
    }
  }
  if (obs.events != nullptr) {
    // Replay the boot-time spare allocation so the event log is
    // self-contained: the role split, every SWR<->RWR pairing and every
    // ASR region. All stamped t=0 — they are decided before any write.
    obs.events->emit(
        "spare_roles",
        {{"scheme", "maxwe"},
         {"swr_regions", static_cast<double>(swrs_.size())},
         {"rwr_regions", static_cast<double>(rwrs_.size())},
         {"asr_regions", static_cast<double>(asrs_.size())},
         {"user_lines", static_cast<double>(user_lines_)},
         {"asr_pool_lines", static_cast<double>(asr_pool_.size())}});
    for (RegionId rwr : rwrs_) {
      obs.events->emit(
          "pairing",
          {{"rwr_region", static_cast<double>(rwr.value())},
           {"swr_region", static_cast<double>(rmt_.spare_of(rwr)->value())},
           {"rwr_endurance", endurance_->region_endurance(rwr)},
           {"swr_endurance",
            endurance_->region_endurance(*rmt_.spare_of(rwr))}});
    }
    for (RegionId asr : asrs_) {
      obs.events->emit(
          "asr_region",
          {{"region", static_cast<double>(asr.value())},
           {"endurance", endurance_->region_endurance(asr)}});
    }
  }
}

void MaxWe::publish_table_gauges() const {
  obs_.metrics->gauge("maxwe.lmt_entries").set(static_cast<double>(lmt_.size()));
  obs_.metrics->gauge("maxwe.rmt_entries").set(static_cast<double>(rmt_.size()));
  obs_.metrics->gauge("maxwe.asr_pool_remaining")
      .set(static_cast<double>(asr_pool_remaining()));
}

std::unique_ptr<SpareScheme> make_maxwe(
    std::shared_ptr<const EnduranceMap> endurance, MaxWeParams params) {
  return std::make_unique<MaxWe>(std::move(endurance), params);
}

}  // namespace nvmsec
