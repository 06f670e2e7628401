#include "obs/event_log.h"

#include <string>

#include "obs/json.h"
#include "util/log.h"

namespace nvmsec {

EventLog::EventLog(std::ostream& out, std::uint64_t max_events,
                   bool write_header)
    : out_(out), max_events_(max_events) {
  if (write_header) {
    // The preamble names the format so a reader can reject foreign JSONL
    // before interpreting any event. It does not count against the cap.
    write_line("schema", {{"format", std::string_view("maxwe-events")}});
  }
}

void EventLog::emit(std::string_view type,
                    std::initializer_list<EventField> fields) {
  if (written_ >= max_events_) {
    if (dropped_ == 0) {
      log_warn() << "EventLog: event cap (" << max_events_
                 << ") reached; later events are dropped";
    }
    ++dropped_;
    return;
  }
  ++written_;
  write_line(type, fields);
}

void EventLog::write_line(std::string_view type,
                          std::initializer_list<EventField> fields) {
  std::string line;
  line.reserve(128);
  line += "{\"v\":";
  json_append_number(line, static_cast<double>(kEventSchemaVersion));
  line += ",\"type\":";
  json_append_string(line, type);
  line += ",\"t\":";
  json_append_number(line, now_);
  for (const EventField& f : fields) {
    line += ',';
    json_append_string(line, f.key);
    line += ':';
    if (f.is_string) {
      json_append_string(line, f.str);
    } else {
      json_append_number(line, f.num);
    }
  }
  line += "}\n";
  out_ << line;
  offset_ += line.size();
}

Status EventLog::truncate_to(std::uint64_t offset) {
  if (offset > offset_) {
    return Status::corruption(
        "event log is shorter (" + std::to_string(offset_) +
        " bytes) than the checkpoint expects (" + std::to_string(offset) +
        " bytes); it cannot contain the checkpointed run's history");
  }
  if (offset == offset_) return Status::ok_status();
  if (!truncator_) {
    return Status::failed_precondition(
        "event log is not file-backed; cannot rewind it to a checkpoint "
        "offset");
  }
  out_.flush();
  if (Status st = truncator_(offset); !st.ok()) return st;
  offset_ = offset;
  return Status::ok_status();
}

void EventLog::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (dropped_ > 0) {
    write_line("log_truncated",
               {{"dropped", static_cast<double>(dropped_)}});
  }
  out_.flush();
}

}  // namespace nvmsec
