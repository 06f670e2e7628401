// Live fleet progress telemetry: a JSONL heartbeat stream.
//
// A 100k-device campaign runs for minutes; the heartbeat is how an operator
// (or CI) watches it without touching the results. The fleet runner hands
// the sink a snapshot of its progress aggregate after each completed shard
// and the sink decides whether enough devices have passed since the last
// line (configurable interval). Like the other obs sinks it is strictly
// optional — an unattached fleet run does zero heartbeat work — and it
// never feeds back into the simulation: the fleet result is bit-identical
// with or without a heartbeat attached.
//
// Schema (one JSON object per line, validated by a ctest):
//
//   {"v":3,"type":"fleet_heartbeat","devices_done":N,"devices_total":N,
//    "devices_per_sec":X,"eta_sec":X,"p50":X,"p99":X,
//    "failure_causes":{"<cause>":N,...},"truncated_logs":N,
//    "shards_done":N,"shards_total":N,"workers":N,
//    "shard_sec_mean":X,"shard_sec_max":X,"shard_imbalance":X,
//    "worker_busy_frac":X,"checkpoint_bytes_written":N}
//
// v3: fields with no data yet are *omitted* rather than emitted as the v2
// -1 sentinels — devices_per_sec / eta_sec until the first wall-clock
// interval elapses, shard_sec_mean / shard_sec_max / shard_imbalance /
// worker_busy_frac until a shard newly run in this process finishes, and
// checkpoint_bytes_written whenever the campaign runs without a journal.
// Fields that are present keep their v2 name, position and meaning.
// checkpoint_bytes_written is the cumulative bytes this process has
// appended to the fleet shard journal (sim/journal.h) — the
// campaign's checkpoint-write cost, which stays O(total shard state) where
// the old full-rewrite mirror was quadratic.
//
// shard_sec_mean/max cover the shards *newly run* in this process
// (resumed shards have no wall time); shard_imbalance is max/mean (1.0 =
// perfectly even shards); worker_busy_frac is the completed shards' total
// wall time divided by (elapsed x workers) — a live lower bound on pool
// utilization that converges once the last shard lands.
//
// devices_per_sec and eta_sec are wall-clock telemetry; everything except
// the utilization fields is simulation state. At jobs > 1 the running
// p50/p99 reflect whichever shards happened to finish first — they
// converge to the final (deterministic) values but intermediate lines are
// telemetry, not results.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace nvmsec {

/// One progress observation, filled by the fleet runner from its running
/// aggregate. Plain data so the obs layer stays independent of sim types.
struct HeartbeatSample {
  std::uint64_t devices_done{0};
  std::uint64_t devices_total{0};
  /// Running normalized-lifetime percentiles over completed devices.
  double p50{0};
  double p99{0};
  /// (cause, count), already in deterministic (sorted) order.
  std::vector<std::pair<std::string, std::uint64_t>> failure_causes;
  std::uint64_t truncated_logs{0};
  /// v2 shard-throughput / utilization fields. Zero-initialized defaults
  /// render as the "no data yet" (-1) values, so fillers that predate v2
  /// still produce valid lines.
  std::uint64_t shards_done{0};
  std::uint64_t shards_total{0};
  /// Worker threads (including the driving thread) the campaign runs with.
  std::uint64_t workers{0};
  /// Shards newly run in this process (denominator for shard_sec_sum).
  std::uint64_t shards_timed{0};
  /// Total / max wall seconds across the newly-run shards.
  double shard_sec_sum{0};
  double shard_sec_max{0};
  /// v3: cumulative bytes appended to the fleet shard journal by this
  /// process; negative = no journal attached (field omitted).
  std::int64_t checkpoint_bytes_written{-1};
};

class HeartbeatSink {
 public:
  /// Emit at most one line per `interval_devices` completed devices (the
  /// final sample is always emitted). The stream is borrowed and must
  /// outlive the sink.
  explicit HeartbeatSink(std::ostream& out,
                         std::uint64_t interval_devices = 1000);

  /// Record a progress sample; writes a line when due. Thread-compatible,
  /// not thread-safe — the fleet runner calls it under its merge lock.
  void sample(const HeartbeatSample& s);

  /// Emit the final line unconditionally and flush.
  void finish(const HeartbeatSample& s);

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  void write_line(const HeartbeatSample& s);

  std::ostream& out_;
  std::uint64_t interval_;
  std::uint64_t last_emitted_at_{0};
  std::uint64_t lines_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace nvmsec
