#include "sim/engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/maxwe.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sim/journal.h"
#include "sim/wear_report.h"

namespace nvmsec {

Engine::Engine(Device& device, Attack& attack, WearLeveler& wear_leveler,
               SpareScheme& spare_scheme, Rng& rng)
    : device_(device),
      attack_(attack),
      wl_(wear_leveler),
      spare_(spare_scheme),
      rng_(rng),
      counts_rng_(rng.substream(kCountsStreamTag)) {
  if (wl_.working_lines() != spare_.working_lines()) {
    throw std::invalid_argument(
        "Engine: wear leveler and spare scheme disagree on working size");
  }
}

void Engine::set_observer(const Observer& obs) {
  obs_ = obs;
  device_.set_observer(obs);
  spare_.set_observer(obs);
}

void Engine::set_checkpointing(std::string path, WriteCount interval,
                               std::uint64_t fingerprint) {
  if (path.empty() || interval == 0) {
    throw std::invalid_argument(
        "Engine::set_checkpointing: need a path and a non-zero interval");
  }
  checkpoint_path_ = std::move(path);
  checkpoint_interval_ = interval;
  fingerprint_ = fingerprint;
}

void Engine::set_fault_injection(MetadataFaultInjector* injector,
                                 MaxWe* scheme) {
  if ((injector == nullptr) != (scheme == nullptr)) {
    throw std::invalid_argument(
        "Engine::set_fault_injection: injector and scheme must be set "
        "together");
  }
  injector_ = injector;
  injector_scheme_ = scheme;
}

void Engine::set_detector(AttackDetector* detector,
                          AdaptiveWearLeveler* adaptive) {
  if (detector == nullptr && adaptive != nullptr) {
    throw std::invalid_argument(
        "Engine::set_detector: adaptive control needs a detector");
  }
  detector_ = detector;
  adaptive_ = adaptive;
}

void Engine::capture_state(StateWriter& w) const {
  w.u64(user_writes_);
  w.u64(absorbed_writes_);
  w.u64(overhead_writes_);
  w.u64(line_deaths_);
  rng_.save_state(w);
  counts_rng_.save_state(w);
  device_.save_state(w);
  attack_.save_state(w);
  wl_.save_state(w);
  spare_.save_state(w);
  w.boolean(buffer_ != nullptr);
  if (buffer_ != nullptr) buffer_->save_state(w);
  w.boolean(injector_ != nullptr);
  if (injector_ != nullptr) injector_->save_state(w);
  // Detector state (window accumulators, hysteresis machine, lifetime
  // stats). The adaptive leveler needs no slot of its own: when adaptive
  // control is on, wl_ IS the AdaptiveWearLeveler and its save_state above
  // already carried the controller + wrapped-leveler state.
  w.boolean(detector_ != nullptr);
  if (detector_ != nullptr) detector_->save_state(w);
  // Event-log byte offset, captured after the checkpoint event itself was
  // emitted and flushed: restore truncates the log back to this point, so
  // a resumed run's stream is byte-identical to an uninterrupted one.
  w.boolean(obs_.events != nullptr);
  if (obs_.events != nullptr) w.u64(obs_.events->offset());
}

void Engine::save_checkpoint() {
  if (obs_.events != nullptr) {
    obs_.events->emit("checkpoint",
                      {{"user_writes", static_cast<double>(user_writes_)}});
    obs_.events->flush();
  }
  StateWriter w;
  capture_state(w);
  // A failed checkpoint write aborts the run loudly: silently continuing
  // would let the user believe the run is resumable when it is not.
  Journal::write_snapshot(checkpoint_path_, fingerprint_, w.buffer())
      .throw_if_error();
}

Status Engine::restore_state(StateReader& r) {
  if (Status st = r.u64(user_writes_); !st.ok()) return st;
  if (Status st = r.u64(absorbed_writes_); !st.ok()) return st;
  if (Status st = r.u64(overhead_writes_); !st.ok()) return st;
  if (Status st = r.u64(line_deaths_); !st.ok()) return st;
  if (Status st = rng_.load_state(r); !st.ok()) return st;
  if (Status st = counts_rng_.load_state(r); !st.ok()) return st;
  if (Status st = device_.load_state(r); !st.ok()) return st;
  if (Status st = attack_.load_state(r); !st.ok()) return st;
  if (Status st = wl_.load_state(r); !st.ok()) return st;
  if (Status st = spare_.load_state(r); !st.ok()) return st;
  bool has_buffer = false;
  if (Status st = r.boolean(has_buffer); !st.ok()) return st;
  if (has_buffer != (buffer_ != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on the DRAM front buffer");
  }
  if (buffer_ != nullptr) {
    if (Status st = buffer_->load_state(r); !st.ok()) return st;
  }
  bool has_injector = false;
  if (Status st = r.boolean(has_injector); !st.ok()) return st;
  if (has_injector != (injector_ != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on metadata fault injection");
  }
  if (injector_ != nullptr) {
    if (Status st = injector_->load_state(r); !st.ok()) return st;
  }
  bool has_detector = false;
  if (Status st = r.boolean(has_detector); !st.ok()) return st;
  if (has_detector != (detector_ != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on attack detection "
        "(--detect)");
  }
  if (detector_ != nullptr) {
    if (Status st = detector_->load_state(r); !st.ok()) return st;
  }
  bool has_events = false;
  if (Status st = r.boolean(has_events); !st.ok()) return st;
  if (has_events != (obs_.events != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on the decision event log "
        "(--events-out)");
  }
  if (obs_.events != nullptr) {
    std::uint64_t offset = 0;
    if (Status st = r.u64(offset); !st.ok()) return st;
    if (Status st = obs_.events->truncate_to(offset); !st.ok()) return st;
  }
  if (!r.exhausted()) {
    return Status::corruption("checkpoint payload has trailing bytes");
  }
  resumed_ = true;
  return Status{};
}

LifetimeResult Engine::run(WriteCount max_user_writes) {
  LifetimeResult result;
  result.ideal_lifetime = device_.total_budget();
  const ScopedTimer run_span(obs_.trace, "engine.run");
  Profiler* const prof = obs_.profiler;
  const ScopedProfPhase prof_span(prof, ProfPhase::kEngineRun);

  if (buffer_ && max_user_writes == 0) {
    throw std::invalid_argument(
        "Engine::run: a DRAM front buffer can absorb a small-footprint "
        "workload forever; set max_user_writes");
  }

  if (!resumed_) {
    user_writes_ = 0;      // user writes completed (device or buffer)
    absorbed_writes_ = 0;  // subset absorbed by the front buffer
    overhead_writes_ = 0;  // migration writes the device absorbed
    line_deaths_ = 0;
  }
  // Region wear-out events need per-region death counts. Rebuilt from the
  // device's ground truth rather than checkpointed, so resumed runs agree
  // with uninterrupted ones by construction.
  const DeviceGeometry& geom = device_.geometry();
  std::vector<std::uint64_t> region_line_deaths;
  if (obs_.events != nullptr) {
    region_line_deaths.assign(geom.num_regions(), 0);
    for (std::uint64_t l = 0; l < geom.num_lines(); ++l) {
      if (device_.is_worn_out(PhysLineAddr{l})) {
        ++region_line_deaths[geom.region_of(PhysLineAddr{l}).value()];
      }
    }
  }
  if (checkpoint_interval_ > 0) {
    // First boundary strictly ahead of the current position, so a resumed
    // run re-checkpoints on the original cadence instead of immediately.
    next_checkpoint_at_ =
        (user_writes_ / checkpoint_interval_ + 1) * checkpoint_interval_;
  }

  const std::uint64_t logical_lines = wl_.logical_lines();
  // Whether one resolve() may serve consecutive writes to an index until
  // its line wears out. FreeP's may not: its resolve() charges a pointer
  // walk per write into checkpointed counters. Only sources allowed to
  // share a resolve emit entries of more than one write.
  const bool cacheable = spare_.resolve_cacheable();

  // Wear-out bookkeeping for every device write. Returns false when the
  // failure ends the run.
  const auto handle_wear_out = [&](std::uint64_t working_index,
                                   PhysLineAddr line) -> bool {
    const ScopedProfPhase rescue_span(prof, ProfPhase::kEngineRescue);
    if (prof != nullptr) prof->add(ProfCounter::kRescueEvents);
    ++line_deaths_;
    if (obs_.events != nullptr) {
      obs_.events->set_now(static_cast<double>(user_writes_));
      const RegionId region = geom.region_of(line);
      if (++region_line_deaths[region.value()] == geom.lines_per_region()) {
        obs_.events->emit("region_wear_out",
                          {{"region", static_cast<double>(region.value())}});
      }
    }
    if (!spare_.on_wear_out(working_index)) {
      result.failed = true;
      result.failure_reason = "unreplaceable wear-out at working index " +
                              std::to_string(working_index) + " (line " +
                              std::to_string(line.value()) + ")";
      if (obs_.events != nullptr) {
        obs_.events->emit(
            "end_of_life",
            {{"cause", "unreplaceable_wear_out"},
             {"working_index", static_cast<double>(working_index)},
             {"line", static_cast<double>(line.value())},
             {"region", static_cast<double>(geom.region_of(line).value())},
             {"user_writes", static_cast<double>(user_writes_)},
             {"line_deaths", static_cast<double>(line_deaths_)}});
      }
      if (obs_.trace != nullptr) {
        obs_.trace->instant(
            "engine.device_failure",
            {{"working_index", static_cast<double>(working_index)},
             {"line", static_cast<double>(line.value())},
             {"user_writes", static_cast<double>(user_writes_)}});
      }
      return false;
    }
    return true;
  };

  // Close one due detection window: emit the verdict (the raw signals are
  // what the report's ROC sweep re-thresholds post-mortem), the alarm
  // transition events, and feed the alarm level into the adaptive cadence
  // controller when one is attached.
  const auto close_detector_window = [&] {
    const ScopedProfPhase detect_span(prof, ProfPhase::kEngineDetector);
    if (prof != nullptr) prof->add(ProfCounter::kDetectorWindows);
    const AlarmLevel before = detector_->level();
    const WindowVerdict v = detector_->close_window();
    if (obs_.events != nullptr) {
      obs_.events->emit(
          "detect_window",
          {{"window", static_cast<double>(v.window_index)},
           {"writes", static_cast<double>(v.writes)},
           {"uniformity", v.uniformity},
           {"occupancy", v.occupancy},
           {"sequential", v.sequential},
           {"anomalous", v.anomalous ? 1.0 : 0.0},
           {"kind", attack_kind_name(v.kind)},
           {"level", alarm_level_name(v.level_after)}});
      if (v.level_after == AlarmLevel::kUnderAttack &&
          before != AlarmLevel::kUnderAttack) {
        obs_.events->emit("alarm_raised",
                          {{"window", static_cast<double>(v.window_index)},
                           {"kind", attack_kind_name(detector_->kind())}});
      } else if (before == AlarmLevel::kUnderAttack &&
                 v.level_after == AlarmLevel::kBenign) {
        obs_.events->emit("alarm_cleared",
                          {{"window", static_cast<double>(v.window_index)}});
      }
    }
    if (adaptive_ != nullptr) {
      const CadenceChange ch =
          adaptive_->on_window(v.level_after, detector_->kind());
      if (ch.changed && obs_.events != nullptr) {
        obs_.events->emit(
            "cadence_change",
            {{"old_interval", static_cast<double>(ch.old_interval)},
             {"new_interval", static_cast<double>(ch.new_interval)},
             {"step", static_cast<double>(ch.step)}});
      }
    }
  };

  // The one loop that writes to the device. For each position in
  // [first, last), entry_of() yields a (working index, count) entry, in
  // stream order; the entry is resolved just before it is written, so a
  // rescue earlier in the stream is always seen, and one resolve serves
  // all of its writes. A wear-out goes to the spare layer: a rescued entry
  // carries on with its remaining writes on the new backing line, an
  // unrescued one ends the run. Returns the user writes the device
  // absorbed; the fatal call's figures feed the count-vector credit.
  struct Entry {
    std::uint64_t index;
    WriteCount count;
    bool overhead;  // wear-leveler migration write, not a user write
  };
  WriteCount fatal_entry_left = 0;  // failed entry's count at the fatal call
  WriteCount fatal_absorbed = 0;    // writes that call absorbed
  const auto write_entries = [&](auto first, const auto last,
                                 const auto& entry_of) {
    const WriteCount user_before = user_writes_;
    for (; first != last; ++first) {
      const Entry e = entry_of(first);
      for (WriteCount left = e.count;;) {
        const PhysLineAddr line = spare_.resolve(e.index);
        const BulkWriteResult res = device_.write_many(line, left);
        (e.overhead ? overhead_writes_ : user_writes_) += res.absorbed;
        if (!res.wore_out) break;  // the line took every remaining write
        // A one-write entry has nothing left (a write absorbs at least
        // one); saying so lets the compiler drop the loop for the per-write
        // and sweep sources, whose entries are all one write.
        left = e.count == 1 ? 0 : left - res.absorbed;
        if (!handle_wear_out(e.index, line)) {
          fatal_entry_left = left + res.absorbed;
          fatal_absorbed = res.absorbed;
          return user_writes_ - user_before;
        }
        if (left == 0) break;
      }
    }
    return user_writes_ - user_before;
  };

  // Per-write source: the wear leveler's write path, whose batch carries
  // the migration writes of a remap along with the user write. A failure
  // drops the unissued remainder of the batch.
  std::vector<WlPhysWrite> batch;
  batch.reserve(16);
  const auto write_one = [&](LogicalLineAddr la) {
    batch.clear();
    wl_.on_write(la, rng_, batch);
    write_entries(batch.data(), batch.data() + batch.size(),
                  [](const WlPhysWrite* w) {
                    return Entry{w->working_index, 1, w->is_overhead};
                  });
  };

  // Count-vector source (stochastic attacks): instead of one address per
  // RNG call, draw how many of the chunk's writes land on each line (an
  // exact multinomial from the dedicated counts substream). Only legal when
  // the attack's declared contract permits reordering (anything but
  // bit-identical), and only worthwhile on large chunks — tiny chunks would
  // pay the multinomial overhead for no batching win, so they fall back to
  // next_run(). An entry is many writes per resolve, so the scheme must
  // allow that.
  constexpr std::uint64_t kMinCountsChunk = 256;
  const bool counts_capable =
      fastpath_ && buffer_ == nullptr && cacheable &&
      attack_.batch_contract() != BatchContract::kBitIdentical;
  // Cap a chunk at ~1/128 of the device's total write budget so the
  // within-chunk reorder distortion (the documented equivalence slack) stays
  // a small fraction of any lifetime the run can reach.
  const std::uint64_t counts_chunk_cap = std::max<std::uint64_t>(
      1024, static_cast<std::uint64_t>(device_.total_budget()) / 128);
  WriteCountVector counts_vec;

  // Chunk-size distributions and the attack's batching contract go to the
  // metrics registry; histograms are looked up once, never per chunk.
  HistogramMetric* counts_chunk_hist = nullptr;
  HistogramMetric* batch_span_hist = nullptr;
  if (obs_.metrics != nullptr) {
    counts_chunk_hist = &obs_.metrics->histogram("engine.counts_chunk_writes");
    batch_span_hist = &obs_.metrics->histogram("engine.batch_span_writes");
    obs_.metrics->gauge("engine.batch_contract")
        .set(static_cast<double>(attack_.batch_contract()));
  }

  while (!result.failed &&
         (max_user_writes == 0 || user_writes_ < max_user_writes)) {
    // User-write boundary work, in fixed order so checkpoints capture a
    // deterministic point: fault injection first, then the checkpoint
    // (which must include the injector's advance), then observability.
    if (obs_.events != nullptr) {
      obs_.events->set_now(static_cast<double>(user_writes_));
    }
    // Detection windows close before fault injection and checkpoints so a
    // checkpoint always captures post-close state (a resumed run never
    // re-closes a window). The loop drains multiple boundaries at once:
    // the wear-out position credit can jump user_writes_ past a boundary.
    if (detector_ != nullptr) {
      while (detector_->window_due(user_writes_)) close_detector_window();
    }
    if (injector_ != nullptr && injector_->due(user_writes_)) {
      injector_->inject_and_scrub(*injector_scheme_, device_);
    }
    if (checkpoint_interval_ > 0 && user_writes_ >= next_checkpoint_at_) {
      const ScopedProfPhase ckpt_span(prof, ProfPhase::kEngineCheckpoint);
      save_checkpoint();
      next_checkpoint_at_ += checkpoint_interval_;
    }
    // Snapshot cadence: one pointer check per user write in the no-op mode,
    // one extra integer compare when a snapshot sink is attached.
    if (obs_.snapshots != nullptr &&
        obs_.snapshots->due(static_cast<double>(user_writes_))) {
      const ScopedProfPhase snap_span(prof, ProfPhase::kEngineSnapshot);
      SnapshotContext ctx;
      ctx.device = &device_;
      ctx.spare = &spare_;
      ctx.wear_leveler = &wl_;
      ctx.buffer = buffer_;
      ctx.user_writes = static_cast<double>(user_writes_);
      ctx.overhead_writes = overhead_writes_;
      ctx.absorbed_writes = absorbed_writes_;
      obs_.snapshots->snapshot(ctx);
      if (obs_.trace != nullptr) {
        const SpareSchemeStats s = spare_.stats();
        obs_.trace->counter(
            "wear",
            {{"line_deaths", static_cast<double>(line_deaths_)},
             {"spares_remaining", static_cast<double>(s.spares_remaining)},
             {"lmt_entries", static_cast<double>(s.lmt_entries)}});
      }
    }

    // Batch cap: a run may never cross the write cap, a checkpoint, a
    // snapshot threshold, or a fault-injection point — those all fire in
    // the boundary block above, at exactly the write counts the per-write
    // loop would see. A DRAM buffer keeps the per-write default: its
    // hit/evict decisions are inherently per-address.
    std::uint64_t limit = 1;
    if (fastpath_ && buffer_ == nullptr) {
      limit = max_user_writes == 0
                  ? std::numeric_limits<std::uint64_t>::max()
                  : max_user_writes - user_writes_;
      if (checkpoint_interval_ > 0) {
        limit = std::min(limit, next_checkpoint_at_ - user_writes_);
      }
      if (injector_ != nullptr) {
        limit = std::min(limit, injector_->writes_until_due(user_writes_));
      }
      if (obs_.snapshots != nullptr) {
        limit = std::min(limit, obs_.snapshots->writes_until_due(
                                    static_cast<double>(user_writes_)));
      }
      if (detector_ != nullptr) {
        limit = std::min(limit, detector_->writes_until_window(user_writes_));
      }
      if (limit == 0) limit = 1;  // defensive: the boundary fired above
    }

    if (counts_capable) {
      // Ramp the chunk with elapsed lifetime: a chunk never spans more than
      // ~1/8 of the run so far, so wear-outs (and the spare allocations
      // they trigger) land within 12.5% of their per-write stream
      // positions even when the static cap exceeds the whole lifetime
      // (spare-limited runs die at a small fraction of the total budget).
      const std::uint64_t chunk = std::min(
          {limit, wl_.writes_until_remap(), counts_chunk_cap,
           std::max(kMinCountsChunk, user_writes_ / 8)});
      if (chunk >= kMinCountsChunk) {
        counts_vec.clear();
        const bool drew = [&] {
          const ScopedProfPhase draw_span(prof, ProfPhase::kEngineCountsDraw);
          return attack_.next_counts(counts_rng_, logical_lines, chunk,
                                     counts_vec);
        }();
        if (drew) {
          // A mixed attack stops a counts draw at its phase boundary, so
          // the vector may total fewer than `chunk` — the fatal-position
          // credit below must use the actual total, not the request.
          const std::uint64_t chunk_total = counts_vec.total();
          if (detector_ != nullptr) detector_->observe_counts(counts_vec);
          const ScopedProfPhase write_span(prof,
                                           ProfPhase::kEngineCountsWrite);
          std::uint64_t issued =
              write_entries(std::size_t{0}, counts_vec.size(),
                            [&](std::size_t i) {
                              return Entry{wl_.translate(LogicalLineAddr{
                                               counts_vec.addrs[i]}),
                                           counts_vec.counts[i], false};
                            });
          if (result.failed) {
            // Terminal failure: the per-write stream interleaves the
            // chunk's writes uniformly (the chunk is exchangeable for a
            // stationary attack), so the fatal r-th write of the entry's
            // remaining c lands at an expected stream position of
            // r*(C+1)/(c+1) within the chunk — not at the entry-order
            // position, which undercounts by up to a whole chunk when the
            // chunk spans a large fraction of the lifetime. Credit the
            // difference so the reported lifetime follows the per-write
            // law.
            const double est = static_cast<double>(fatal_absorbed) *
                               (static_cast<double>(chunk_total) + 1.0) /
                               (static_cast<double>(fatal_entry_left) + 1.0);
            const std::uint64_t fatal_pos =
                std::min(chunk_total, static_cast<std::uint64_t>(est));
            if (fatal_pos > issued) {
              // The credited writes never reached the device (it is
              // dead); book them as absorbed so device_writes ==
              // user_writes - absorbed + overhead stays exact.
              user_writes_ += fatal_pos - issued;
              absorbed_writes_ += fatal_pos - issued;
              issued = fatal_pos;
            }
          }
          wl_.commit_batched_writes(issued);
          if (prof != nullptr) {
            prof->add(ProfCounter::kCountsChunks);
            prof->add(ProfCounter::kCountsWrites, issued);
          }
          if (counts_chunk_hist != nullptr) {
            counts_chunk_hist->observe(static_cast<double>(issued));
          }
          continue;
        }
      }
    }

    const AttackRun run = [&] {
      const ScopedProfPhase draw_span(prof, ProfPhase::kEngineBatchDraw);
      return attack_.next_run(rng_, logical_lines, limit);
    }();
    // Observe the request stream at generation time: the run form updates
    // the detector's counters exactly as per-write observes would, so
    // bit-identical attacks keep byte-identical detector state across
    // fastpath on/off. Buffer-absorbed writes are observed too — the
    // detector watches what the attacker issues, not what reaches the NVM.
    if (detector_ != nullptr) {
      detector_->observe_run(run.start.value(), run.count, run.stride);
    }
    if (buffer_ != nullptr) {
      const ScopedProfPhase buffer_span(prof, ProfPhase::kEngineBuffer);
      // limit == 1, so the run is a single write — identical to next().
      const std::optional<LogicalLineAddr> evicted = buffer_->write(run.start);
      if (!evicted) {
        ++user_writes_;
        ++absorbed_writes_;
        continue;
      }
      write_one(*evicted);  // the write-back carries the data to the NVM
      continue;
    }

    // One span for the whole run, however it is sliced below: a leveler
    // with a short horizon (PCM-S, BWL) or none (TLSR under a sweep) would
    // otherwise pay a clock pair per slice. The perwrite/batch counters
    // keep the split.
    const ScopedProfPhase write_span(prof, fastpath_
                                               ? ProfPhase::kEngineBatchWrite
                                               : ProfPhase::kEnginePerWrite);
    // A stride-0 run hammers one address, so it may ask the leveler about
    // that address alone: TLSR and WAWL count per sub-region or per line
    // and only batch on this per-address horizon.
    const bool one_address = run.stride == 0;
    std::uint64_t done = 0;
    std::uint64_t one_by_one = 0;
    while (done < run.count && !result.failed) {
      // Static-mapping horizon: how many writes the wear leveler takes
      // without remapping, migrating, or drawing from the RNG. 0 means the
      // leveler declines batching (or a remap is imminent): take the exact
      // per-write path for this write.
      const std::uint64_t horizon =
          !fastpath_    ? 0
          : one_address ? wl_.writes_until_remap_at(run.start)
                        : wl_.writes_until_remap();
      if (horizon == 0) {
        write_one(run.addr_at(done));
        ++done;
        ++one_by_one;
        continue;
      }
      const std::uint64_t span = std::min(horizon, run.count - done);
      std::uint64_t issued = 0;
      if (one_address && cacheable) {
        // One address hammered: one entry of `span` writes.
        issued = write_entries(done, done + 1, [&](std::uint64_t) {
          return Entry{wl_.translate(run.start), span, false};
        });
      } else {
        // A sweep, or a scheme that resolves once per write: `span`
        // entries of one write each.
        issued = write_entries(done, done + span, [&](std::uint64_t k) {
          return Entry{wl_.translate(run.addr_at(k)), 1, false};
        });
      }
      // Fast-forward the remap cadence by the writes actually issued (the
      // per-write path would have counted each of them, including a fatal
      // final write, before the remap ever fired).
      if (one_address) {
        wl_.commit_batched_writes_at(run.start, issued);
      } else {
        wl_.commit_batched_writes(issued);
      }
      done += issued;
      if (prof != nullptr) {
        prof->add(ProfCounter::kBatchRuns);
        prof->add(ProfCounter::kBatchWrites, issued);
      }
      if (batch_span_hist != nullptr) {
        batch_span_hist->observe(static_cast<double>(issued));
      }
    }
    if (prof != nullptr && one_by_one > 0) {
      prof->add(ProfCounter::kPerWriteFallback, one_by_one);
    }
  }

  if (obs_.events != nullptr) {
    obs_.events->set_now(static_cast<double>(user_writes_));
    obs_.events->emit(
        "run_end",
        {{"outcome", result.failed ? "device_failure" : "write_cap_reached"},
         {"user_writes", static_cast<double>(user_writes_)},
         {"overhead_writes", static_cast<double>(overhead_writes_)},
         {"line_deaths", static_cast<double>(line_deaths_)}});
  }
  if (obs_.metrics != nullptr) {
    MetricsRegistry& m = *obs_.metrics;
    m.counter("engine.user_writes").set(user_writes_);
    m.counter("engine.overhead_writes").set(overhead_writes_);
    m.counter("engine.absorbed_writes").set(absorbed_writes_);
    m.counter("engine.line_deaths").set(line_deaths_);
    m.counter("engine.device_writes").set(device_.total_writes());
    if (buffer_ != nullptr) buffer_->publish_metrics(m);
    const SpareSchemeStats s = spare_.stats();
    m.gauge("spare.spares_remaining")
        .set(static_cast<double>(s.spares_remaining));
    m.gauge("spare.lmt_entries").set(static_cast<double>(s.lmt_entries));
    m.gauge("spare.rmt_entries").set(static_cast<double>(s.rmt_entries));
    m.counter("spare.replacements").set(s.replacements);
    m.counter("wl.migration_writes").set(wl_.overhead_writes());
    if (detector_ != nullptr) {
      m.counter("detect.windows_closed").set(detector_->windows_closed());
      m.counter("detect.anomalous_windows")
          .set(detector_->anomalous_windows());
      m.counter("detect.alarms_raised").set(detector_->alarms_raised());
      m.counter("detect.windows_in_alarm").set(detector_->windows_in_alarm());
    }
    if (adaptive_ != nullptr) {
      m.counter("adaptive.cadence_changes").set(adaptive_->cadence_changes());
    }
  }
  if (prof != nullptr && buffer_ != nullptr) {
    const DramBufferStats& bs = buffer_->stats();
    prof->add(ProfCounter::kBufferHit, bs.hits);
    prof->add(ProfCounter::kBufferMiss, bs.misses);
    prof->add(ProfCounter::kBufferEvict, bs.evictions);
  }
  if (obs_.snapshots != nullptr) {
    // Final sample so the series always ends at the run's last state.
    SnapshotContext ctx;
    ctx.device = &device_;
    ctx.spare = &spare_;
    ctx.wear_leveler = &wl_;
    ctx.buffer = buffer_;
    ctx.user_writes = static_cast<double>(user_writes_);
    ctx.overhead_writes = overhead_writes_;
    ctx.absorbed_writes = absorbed_writes_;
    obs_.snapshots->snapshot_now(ctx);
  }

  result.user_writes = static_cast<double>(user_writes_);
  result.absorbed_writes = absorbed_writes_;
  result.overhead_writes = overhead_writes_;
  result.device_writes = device_.total_writes();
  result.line_deaths = line_deaths_;
  result.normalized =
      result.ideal_lifetime > 0 ? result.user_writes / result.ideal_lifetime
                                : 0.0;
  result.wear_gini = analyze_wear(device_).utilization_gini;
  if (detector_ != nullptr) {
    result.windows_observed = detector_->windows_closed();
    result.anomalous_windows = detector_->anomalous_windows();
    result.alarms_raised = detector_->alarms_raised();
    result.windows_in_alarm = detector_->windows_in_alarm();
  }
  if (adaptive_ != nullptr) {
    result.cadence_changes = adaptive_->cadence_changes();
  }
  if (!result.failed) {
    result.failure_reason = "write cap reached";
  }
  return result;
}

}  // namespace nvmsec
