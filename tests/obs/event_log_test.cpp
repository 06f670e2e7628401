// EventLog unit tests: schema header, write-clock stamping, escaping, the
// event cap, and the truncate/rewind machinery that checkpoint-resume
// byte-identity rests on — plus a full instrumented run asserting the
// decision events a Max-WE lifetime actually produces.
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "json_test_util.h"
#include "obs/session.h"
#include "sim/experiment.h"
#include "util/status.h"

namespace nvmsec {
namespace {

using testjson::JsonValue;
using testjson::parse_json;
using testjson::parse_jsonl;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(EventLogTest, WritesVersionedSchemaHeaderFirst) {
  std::ostringstream out;
  EventLog log(out);
  const std::vector<JsonValue> lines = parse_jsonl(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].str("type"), "schema");
  EXPECT_DOUBLE_EQ(lines[0].num("v"), kEventSchemaVersion);
  EXPECT_EQ(lines[0].str("format"), "maxwe-events");
  EXPECT_EQ(log.offset(), out.str().size());
}

TEST(EventLogTest, NoHeaderWhenAppending) {
  std::ostringstream out;
  EventLog log(out, EventLog::kDefaultMaxEvents, /*write_header=*/false);
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(log.offset(), 0u);
}

TEST(EventLogTest, EventsCarryWriteClockAndFields) {
  std::ostringstream out;
  EventLog log(out);
  log.set_now(1234);
  log.emit("asr_alloc", {{"raw_line", 17.0}, {"scheme", "maxwe"}});
  const std::vector<JsonValue> lines = parse_jsonl(out.str());
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue& e = lines[1];
  EXPECT_DOUBLE_EQ(e.num("v"), 1.0);
  EXPECT_EQ(e.str("type"), "asr_alloc");
  EXPECT_DOUBLE_EQ(e.num("t"), 1234.0);
  EXPECT_DOUBLE_EQ(e.num("raw_line"), 17.0);
  EXPECT_EQ(e.str("scheme"), "maxwe");
  EXPECT_EQ(log.events_written(), 1u);
  EXPECT_EQ(log.offset(), out.str().size());
}

TEST(EventLogTest, StringFieldsAreEscaped) {
  std::ostringstream out;
  EventLog log(out);
  log.emit("note", {{"text", "a \"quote\" and \\ and \n tab\t"}});
  const std::vector<JsonValue> lines = parse_jsonl(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1].str("text"), "a \"quote\" and \\ and \n tab\t");
}

TEST(EventLogTest, CapDropsEventsAndFinalizeMarksTruncation) {
  std::ostringstream out;
  EventLog log(out, /*max_events=*/3);
  for (int i = 0; i < 5; ++i) {
    log.emit("tick", {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(log.events_written(), 3u);
  EXPECT_EQ(log.events_dropped(), 2u);
  log.finalize();
  log.finalize();  // idempotent
  const std::vector<JsonValue> lines = parse_jsonl(out.str());
  // schema + 3 ticks + log_truncated.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines.back().str("type"), "log_truncated");
  EXPECT_DOUBLE_EQ(lines.back().num("dropped"), 2.0);
}

TEST(EventLogTest, TruncateNeedsATruncator) {
  std::ostringstream out;
  EventLog log(out);
  log.emit("tick");
  const Status st = log.truncate_to(log.offset() - 1);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Rewinding to the current offset is a no-op and needs no truncator.
  EXPECT_TRUE(log.truncate_to(log.offset()).ok());
}

TEST(EventLogTest, TruncateBeyondEndIsCorruption) {
  std::ostringstream out;
  EventLog log(out);
  const Status st = log.truncate_to(log.offset() + 100);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(EventLogTest, FileBackedTruncateRestoresExactBytes) {
  const std::string path = temp_path("event_log_truncate_test.jsonl");
  std::filesystem::remove(path);
  {
    // Append mode, per the truncate_to() contract: after the backing file
    // shrinks, later writes must land at the new end, not the old offset.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    EventLog log(out);
    log.set_truncator([&out, &path](std::uint64_t offset) -> Status {
      out.flush();
      std::error_code ec;
      std::filesystem::resize_file(path, offset, ec);
      if (ec) return Status::io_error("resize failed: " + ec.message());
      return Status::ok_status();
    });
    log.set_now(10);
    log.emit("keep", {{"k", 1.0}});
    const std::uint64_t mark = log.offset();
    const std::string snapshot_bytes = [&] {
      out.flush();
      return slurp(path);
    }();
    log.set_now(20);
    log.emit("discard", {{"k", 2.0}});
    ASSERT_TRUE(log.truncate_to(mark).ok());
    EXPECT_EQ(log.offset(), mark);
    out.flush();
    EXPECT_EQ(slurp(path), snapshot_bytes);
    // Writes after the rewind continue from the truncation point.
    log.set_now(20);
    log.emit("replay", {{"k", 3.0}});
    out.flush();
  }
  const std::vector<JsonValue> lines = parse_jsonl(slurp(path));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].str("type"), "keep");
  EXPECT_EQ(lines[2].str("type"), "replay");
  std::filesystem::remove(path);
}

TEST(ObsSessionEventsTest, SessionWiresFileBackedEventLog) {
  const std::string path = temp_path("obs_session_events_test.jsonl");
  std::filesystem::remove(path);
  {
    ObsConfig config;
    config.events_path = path;
    ASSERT_TRUE(config.any());
    ObsSession session(config);
    ASSERT_NE(session.observer().events, nullptr);
    session.observer().events->emit("tick");
    session.finalize();
  }
  const std::vector<JsonValue> lines = parse_jsonl(slurp(path));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].str("type"), "schema");
  EXPECT_EQ(lines[1].str("type"), "tick");
  std::filesystem::remove(path);
}

TEST(ObsSessionEventsTest, ResumeRefusesTraceSink) {
  ObsConfig config;
  config.trace_path = temp_path("obs_session_trace_resume_test.json");
  config.resume = true;
  EXPECT_THROW(ObsSession{config}, std::invalid_argument);
}

TEST(ObsSessionTraceTest, FinalizeCommitsAClosedJsonArray) {
  const std::string path = temp_path("obs_session_trace_test.json");
  std::filesystem::remove(path);
  {
    ObsConfig config;
    config.trace_path = path;
    ObsSession session(config);
    ExperimentConfig run;
    run.geometry = DeviceGeometry::scaled(2048, 128);
    run.endurance.endurance_at_mean = 1000.0;
    run.mode = SimulationMode::kUniformEvent;
    run.spare_scheme = "maxwe";
    run.observer = session.observer();
    (void)run_experiment(run);
    // The trace streams to a temp file; only finalize puts it in place.
    EXPECT_FALSE(std::filesystem::exists(path));
    session.finalize();
  }
  const JsonValue trace = parse_json(slurp(path));
  ASSERT_TRUE(trace.is_array());
  ASSERT_FALSE(trace.array.empty());
  for (const JsonValue& e : trace.array) {
    EXPECT_FALSE(e.str("name").empty());
    EXPECT_FALSE(e.str("ph").empty());
  }
  std::filesystem::remove(path);
}

TEST(EventLogIntegrationTest, MaxWeRunEmitsDecisionHistory) {
  ExperimentConfig config;
  config.geometry = DeviceGeometry::scaled(2048, 128);
  config.endurance.endurance_at_mean = 1000.0;
  config.mode = SimulationMode::kUniformEvent;
  config.spare_scheme = "maxwe";

  std::ostringstream out;
  EventLog log(out);
  config.observer.events = &log;
  const LifetimeResult result = run_experiment(config);

  const std::vector<JsonValue> lines = parse_jsonl(out.str());
  ASSERT_GT(lines.size(), 4u);
  std::size_t run_starts = 0, pairings = 0, rescues = 0, run_ends = 0;
  double end_user_writes = -1;
  for (const JsonValue& e : lines) {
    const std::string& type = e.str("type");
    if (type == "run_start") {
      ++run_starts;
      EXPECT_EQ(e.str("spare"), "maxwe");
      EXPECT_DOUBLE_EQ(e.num("lines"), 2048.0);
    } else if (type == "pairing") {
      ++pairings;
      // Antitone matching: the strong partner must out-endure the weak one.
      EXPECT_GE(e.num("rwr_endurance"), e.num("swr_endurance"));
    } else if (type == "rmt_redirect" || type == "asr_alloc") {
      ++rescues;
    } else if (type == "run_end") {
      ++run_ends;
      end_user_writes = e.num("user_writes");
    }
  }
  EXPECT_EQ(run_starts, 1u);
  EXPECT_GT(pairings, 0u);
  EXPECT_GT(rescues, 0u);
  EXPECT_EQ(run_ends, 1u);
  EXPECT_DOUBLE_EQ(end_user_writes, result.user_writes);

  // The same run with no observer is unchanged (zero-cost when off).
  ExperimentConfig plain = config;
  plain.observer = Observer{};
  const LifetimeResult baseline = run_experiment(plain);
  EXPECT_DOUBLE_EQ(baseline.normalized, result.normalized);
  EXPECT_EQ(baseline.line_deaths, result.line_deaths);
}

}  // namespace
}  // namespace nvmsec
