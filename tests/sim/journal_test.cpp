// Journal: the append policy (append/replay round-trip, torn-tail
// self-healing), the snapshot policy (one intact record or a refusal that
// leaves the file alone), and the header refusals both share (foreign
// fingerprint, legacy MXWECKPT files, bad magic, future versions).
#include "sim/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/status.h"

namespace nvmsec {
namespace {

namespace fs = std::filesystem;

// What the fleet runner names its fingerprint in refusals.
constexpr const char* kSubject = "population spec";

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove(path);
  return path;
}

std::vector<std::uint8_t> payload_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> p;
  for (int b : bytes) p.push_back(static_cast<std::uint8_t>(b));
  return p;
}

void write_records(const std::string& path, std::uint64_t fingerprint,
                   bool truncate,
                   const std::vector<JournalRecord>& records) {
  Journal journal;
  ASSERT_TRUE(journal.open(path, fingerprint, truncate).ok());
  for (const auto& rec : records) {
    ASSERT_TRUE(journal.append(rec.key, rec.payload).ok());
  }
}

TEST(FleetJournal, AppendReplayRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.jrnl");
  const std::uint64_t fp = 0xDEADBEEFCAFEF00Dull;
  std::vector<JournalRecord> written;
  written.push_back({0, payload_of({1, 2, 3})});
  written.push_back({3, payload_of({0xFF, 0x00, 0x7F, 0x80})});
  written.push_back({1, payload_of({42})});

  Journal journal;
  ASSERT_TRUE(journal.open(path, fp, /*truncate=*/true).ok());
  std::uint64_t expected_bytes = 20;  // header
  for (const auto& rec : written) {
    ASSERT_TRUE(journal.append(rec.key, rec.payload).ok());
    expected_bytes += 16 + rec.payload.size();
  }
  EXPECT_EQ(journal.bytes_written(), expected_bytes);
  EXPECT_EQ(fs::file_size(path), expected_bytes);

  auto replayed = Journal::replay(path, fp, kSubject);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  const auto& records = replayed.value();
  ASSERT_EQ(records.size(), written.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].key, written[i].key);
    EXPECT_EQ(records[i].payload, written[i].payload);
  }
}

TEST(FleetJournal, ReopenAppendsAfterExistingRecords) {
  const std::string path = temp_path("journal_reopen.jrnl");
  const std::uint64_t fp = 7;
  write_records(path, fp, /*truncate=*/true, {{0, payload_of({10})}});
  // A resumed campaign reopens without truncating and appends; a shard
  // index may repeat — replay reports file order, the consumer takes the
  // last record per index.
  write_records(path, fp, /*truncate=*/false,
                {{1, payload_of({20})}, {0, payload_of({30})}});

  auto replayed = Journal::replay(path, fp, kSubject);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  const auto& records = replayed.value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, 0u);
  EXPECT_EQ(records[0].payload, payload_of({10}));
  EXPECT_EQ(records[1].key, 1u);
  EXPECT_EQ(records[2].key, 0u);
  EXPECT_EQ(records[2].payload, payload_of({30}));
}

TEST(FleetJournal, TornTailIsTruncatedInPlace) {
  const std::string path = temp_path("journal_torn.jrnl");
  const std::uint64_t fp = 99;
  write_records(path, fp, /*truncate=*/true,
                {{0, payload_of({1, 2})}, {1, payload_of({3, 4, 5})}});
  const std::uintmax_t good_size = fs::file_size(path);

  // SIGKILL mid-append: half a record lands on disk.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {0x09, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00};
    out.write(torn, sizeof(torn));
  }
  ASSERT_GT(fs::file_size(path), good_size);

  auto replayed = Journal::replay(path, fp, kSubject);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  ASSERT_EQ(replayed.value().size(), 2u);
  EXPECT_EQ(replayed.value()[1].payload, payload_of({3, 4, 5}));
  // The tail is gone from disk, so the next append splices cleanly.
  EXPECT_EQ(fs::file_size(path), good_size);

  write_records(path, fp, /*truncate=*/false, {{2, payload_of({6})}});
  auto again = Journal::replay(path, fp, kSubject);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().size(), 3u);
  EXPECT_EQ(again.value()[2].key, 2u);
}

TEST(FleetJournal, CrcFailureDropsTheTail) {
  const std::string path = temp_path("journal_crc.jrnl");
  const std::uint64_t fp = 5;
  write_records(path, fp, /*truncate=*/true,
                {{0, payload_of({1})}, {1, payload_of({2})}});
  const std::uintmax_t full_size = fs::file_size(path);
  // Flip one payload byte of the second record (header 20 + record one
  // 16+1 = offset 37; second record's payload byte sits at 37 + 12).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(37 + 12);
    f.put('\x7E');
  }
  auto replayed = Journal::replay(path, fp, kSubject);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  ASSERT_EQ(replayed.value().size(), 1u);
  EXPECT_EQ(replayed.value()[0].payload, payload_of({1}));
  EXPECT_LT(fs::file_size(path), full_size);
}

TEST(FleetJournal, EmptyJournalReplaysToNoRecords) {
  const std::string path = temp_path("journal_empty.jrnl");
  write_records(path, 11, /*truncate=*/true, {});
  auto replayed = Journal::replay(path, 11, kSubject);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  EXPECT_TRUE(replayed.value().empty());
}

TEST(FleetJournal, MissingFileIsNotFound) {
  auto replayed =
      Journal::replay(temp_path("journal_missing.jrnl"), 1, kSubject);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kNotFound);
}

TEST(FleetJournal, ForeignFingerprintIsRefused) {
  const std::string path = temp_path("journal_foreign.jrnl");
  write_records(path, 1234, /*truncate=*/true, {{0, payload_of({1})}});
  auto replayed = Journal::replay(path, 5678, kSubject);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(replayed.status().message().find("different population"),
            std::string::npos);
}

TEST(FleetJournal, LegacyCheckpointIsVersionMismatch) {
  const std::string path = temp_path("journal_legacy.jrnl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "MXWECKPT";
    const std::string padding(32, '\0');
    out.write(padding.data(),
              static_cast<std::streamsize>(padding.size()));
  }
  auto replayed = Journal::replay(path, 1, kSubject);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kVersionMismatch);
  EXPECT_NE(replayed.status().message().find("MXWECKPT"), std::string::npos);
}

TEST(FleetJournal, UnknownMagicIsCorruption) {
  const std::string path = temp_path("journal_garbage.jrnl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a journal";
  }
  auto replayed = Journal::replay(path, 1, kSubject);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption);
}

TEST(FleetJournal, FutureVersionIsRefused) {
  const std::string path = temp_path("journal_future.jrnl");
  write_records(path, 3, /*truncate=*/true, {{0, payload_of({1})}});
  {
    // Bump the version field (offset 8) past what this build reads.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.put('\x7F');
  }
  auto replayed = Journal::replay(path, 3, kSubject);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kVersionMismatch);
}

TEST(FleetJournal, AppendBeforeOpenFails) {
  Journal journal;
  EXPECT_FALSE(journal.is_open());
  const Status s = journal.append(0, payload_of({1}));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

// ---- snapshot policy -------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Reads `path` as a snapshot, expects `code`, checks the failed read left
/// every byte of the file where it was, and returns the refusal message.
std::string expect_refused_unchanged(const std::string& path,
                                     StatusCode code) {
  const std::string before = slurp(path);
  const auto read = Journal::read_snapshot(path, 42, "configuration");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), code) << read.status().to_string();
  EXPECT_EQ(slurp(path), before) << "a failed snapshot read changed the file";
  return read.status().message();
}

TEST(JournalSnapshot, WritesHeaderPlusOneRecord) {
  const std::string path = temp_path("snapshot_layout.jrnl");
  const std::vector<std::uint8_t> payload = payload_of({9, 8, 7, 6, 5});
  ASSERT_TRUE(Journal::write_snapshot(path, 42, payload).ok());
  EXPECT_EQ(fs::file_size(path), 20u + 16u + payload.size());
  // Same framing as an appended journal: replay sees one key-0 record.
  auto replayed = Journal::replay(path, 42, "configuration");
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  ASSERT_EQ(replayed.value().size(), 1u);
  EXPECT_EQ(replayed.value()[0].key, 0u);
  EXPECT_EQ(replayed.value()[0].payload, payload);
  // A rewrite replaces the record instead of appending a second one.
  ASSERT_TRUE(Journal::write_snapshot(path, 42, payload_of({1})).ok());
  EXPECT_EQ(Journal::read_snapshot(path, 42, "configuration").take(),
            payload_of({1}));
  EXPECT_EQ(fs::file_size(path), 20u + 16u + 1u);
}

TEST(JournalSnapshot, TornFileIsCorruptionAndLeftAlone) {
  const std::string path = temp_path("snapshot_torn.jrnl");
  ASSERT_TRUE(
      Journal::write_snapshot(path, 42, payload_of({1, 2, 3, 4, 5, 6})).ok());
  std::string bytes = slurp(path);
  bytes.resize(bytes.size() - 3);
  spit(path, bytes);
  EXPECT_NE(expect_refused_unchanged(path, StatusCode::kCorruption)
                .find("truncated"),
            std::string::npos);
}

TEST(JournalSnapshot, CrcFlipIsCorruptionAndLeftAlone) {
  const std::string path = temp_path("snapshot_crc.jrnl");
  ASSERT_TRUE(
      Journal::write_snapshot(path, 42, payload_of({1, 2, 3, 4, 5, 6})).ok());
  std::string bytes = slurp(path);
  bytes[20 + 12 + 2] = static_cast<char>(bytes[20 + 12 + 2] ^ 0x10);
  spit(path, bytes);
  EXPECT_NE(expect_refused_unchanged(path, StatusCode::kCorruption)
                .find("CRC"),
            std::string::npos);
}

TEST(JournalSnapshot, TrailingBytesAreCorruptionAndLeftAlone) {
  const std::string path = temp_path("snapshot_trailing.jrnl");
  ASSERT_TRUE(Journal::write_snapshot(path, 42, payload_of({1, 2, 3})).ok());
  spit(path, slurp(path) + "TRAILING-GARBAGE");
  expect_refused_unchanged(path, StatusCode::kCorruption);
}

TEST(JournalSnapshot, RecordCountOtherThanOneIsCorruption) {
  const std::string none = temp_path("snapshot_none.jrnl");
  write_records(none, 42, /*truncate=*/true, {});
  EXPECT_NE(expect_refused_unchanged(none, StatusCode::kCorruption)
                .find("exactly one"),
            std::string::npos);

  const std::string two = temp_path("snapshot_two.jrnl");
  write_records(two, 42, /*truncate=*/true,
                {{0, payload_of({1})}, {0, payload_of({2})}});
  expect_refused_unchanged(two, StatusCode::kCorruption);
}

TEST(JournalSnapshot, HeaderRefusalsMatchReplay) {
  const std::string path = temp_path("snapshot_foreign.jrnl");
  ASSERT_TRUE(Journal::write_snapshot(path, 7, payload_of({1})).ok());
  EXPECT_NE(expect_refused_unchanged(path, StatusCode::kFailedPrecondition)
                .find("different configuration"),
            std::string::npos);

  const std::string legacy = temp_path("snapshot_legacy.ckpt");
  spit(legacy, "MXWECKPT" + std::string(32, '\0'));
  EXPECT_NE(expect_refused_unchanged(legacy, StatusCode::kVersionMismatch)
                .find("MXWECKPT"),
            std::string::npos);

  const auto missing =
      Journal::read_snapshot(temp_path("snapshot_missing.jrnl"), 7, "x");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace nvmsec
