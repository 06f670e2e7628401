// EventLog: the decision-level flight recorder.
//
// Metrics say *how many* rescues happened; the event log says *which* spare
// line rescued *which* raw line, and when. Instrumented components emit
// typed, schema-versioned events (one JSON object per line) stamped with
// the simulation's write clock, so an offline tool (tools/maxwe_report) can
// reconstruct the full decision history of a run: SWR/RWR pairing, dynamic
// rescues, pool exhaustion, scrub repairs, checkpoints, end-of-life cause.
//
// Determinism contract: emitted bytes depend only on the simulation state
// (never on wall-clock time, pointers, or thread scheduling), so two runs
// of the same configuration produce byte-identical logs regardless of
// --jobs, and a checkpoint-resumed run reproduces the uninterrupted log
// exactly. To make the latter work across a SIGKILL, the log streams to
// its final path (no temp-file rename — a flight recorder must survive the
// crash it is recording), is flushed at every checkpoint, and the
// checkpoint stores the log's byte offset; restore rewinds the file to
// that offset via truncate_to() before the run continues.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <string_view>

#include "util/status.h"

namespace nvmsec {

/// Version stamped into every event line as "v". Bump when the meaning or
/// set of fields of an existing event type changes; adding a new event
/// type is backward compatible and does not bump it.
inline constexpr std::uint32_t kEventSchemaVersion = 1;

/// One key/value field of an event: either a number or a string. Keys and
/// string values are borrowed for the duration of the emit() call only.
struct EventField {
  EventField(std::string_view k, double v) : key(k), num(v) {}
  EventField(std::string_view k, std::string_view v)
      : key(k), str(v), is_string(true) {}

  std::string_view key;
  double num{0};
  std::string_view str{};
  bool is_string{false};
};

class EventLog {
 public:
  /// Hard cap on emitted events; beyond it events are counted but dropped,
  /// and finalize() appends a "log_truncated" marker with the drop count.
  static constexpr std::uint64_t kDefaultMaxEvents = 1'000'000;

  /// `write_header` emits the schema preamble line (fresh logs); pass
  /// false when appending to an existing log on resume.
  explicit EventLog(std::ostream& out,
                    std::uint64_t max_events = kDefaultMaxEvents,
                    bool write_header = true);

  /// Set the write clock: user writes completed so far. Events emitted
  /// until the next call are stamped with this value as "t".
  void set_now(double user_writes) { now_ = user_writes; }
  [[nodiscard]] double now() const { return now_; }

  /// Append one event line: {"v":1,"type":<type>,"t":<now>,<fields...>}.
  void emit(std::string_view type,
            std::initializer_list<EventField> fields = {});

  /// Bytes this log has emitted so far (including the schema preamble, or
  /// the pre-existing file content registered via set_offset()). This is
  /// the value checkpoints store and truncate_to() rewinds to.
  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  [[nodiscard]] std::uint64_t events_written() const { return written_; }
  [[nodiscard]] std::uint64_t events_dropped() const { return dropped_; }

  void flush() { out_.flush(); }

  /// File-backed logs install a truncator that resizes the backing file;
  /// truncate_to() flushes, invokes it, and rewinds offset(). The output
  /// stream must be in append mode so later writes land at the new end.
  using Truncator = std::function<Status(std::uint64_t)>;
  void set_truncator(Truncator truncator) { truncator_ = std::move(truncator); }

  /// Register the byte offset of pre-existing content when appending to an
  /// existing log (resume).
  void set_offset(std::uint64_t offset) { offset_ = offset; }

  /// Rewind the log to `offset` (a value a checkpoint captured earlier).
  /// Fails with failed_precondition when no truncator is installed (not
  /// file-backed) and with corruption when the log is already shorter than
  /// `offset` — the file cannot contain the checkpoint's history.
  [[nodiscard]] Status truncate_to(std::uint64_t offset);

  /// Append the "log_truncated" marker if events were dropped, then flush.
  /// Idempotent; ObsSession calls it when the run ends.
  void finalize();

 private:
  void write_line(std::string_view type,
                  std::initializer_list<EventField> fields);

  std::ostream& out_;
  std::uint64_t max_events_;
  double now_{0};
  std::uint64_t offset_{0};
  std::uint64_t written_{0};
  std::uint64_t dropped_{0};
  bool finalized_{false};
  Truncator truncator_;
};

}  // namespace nvmsec
