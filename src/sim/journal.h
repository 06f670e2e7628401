// CRC-framed record files: the one on-disk format for crash-safe state.
//
// Three stores share it:
//   * fleet campaigns append one record per completed shard (key = shard
//     index, payload = FleetAggregate::save_state bytes);
//   * --seeds sweeps append one record per finished run (key = run
//     index, payload = the run's config fingerprint + LifetimeResult);
//   * an engine checkpoint is a file holding exactly one record (key 0,
//     payload = the engine state), rewritten at every checkpoint.
//
// File layout:
//
//   offset  size  field
//   0       8     magic "MXWEJRNL"
//   8       4     format version (little-endian u32, currently 1)
//   12      8     fingerprint of what wrote the file (little-endian u64)
//   20      ...   records, back to back
//
// Record layout:
//
//   offset  size  field
//   0       4     payload size n (little-endian u32)
//   4       8     record key (little-endian u64)
//   12      n     payload
//   12+n    4     CRC-32 of bytes [4, 12+n) (little-endian u32)
//
// Write policies. Append (sweeps, fleets): records are plain writes +
// flush, not atomic renames, so a SIGKILL can tear the last record but
// never touches the ones before it, and a run of N units writes each
// unit's state exactly once. Snapshot (engine state): the whole one-record
// file goes through AtomicFileWriter (temp file + rename), so a crash
// mid-save leaves the previous snapshot intact.
//
// Read policies. Both run one parser that validates the header — magic,
// version, and the fingerprint the caller expects (a file written for a
// different configuration, population or kind of run is refused with
// failed_precondition) — then walks the records, trusting only frames
// whose CRC verifies. replay() keeps the intact prefix and truncates a
// torn tail in place, so the next append splices cleanly; a key may appear
// more than once and the caller decides which record wins. read_snapshot()
// never modifies the file and accepts exactly one intact record: a torn
// record, a CRC mismatch, trailing bytes or any other record count is
// corruption.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace nvmsec {

inline constexpr char kJournalMagic[8] = {'M', 'X', 'W', 'E',
                                          'J', 'R', 'N', 'L'};
// Versions the framing and every payload layout it carries (engine state,
// sweep records, fleet shard aggregates): a change to any of them bumps
// it, so an older file is refused with version_mismatch, not misread.
inline constexpr std::uint32_t kJournalVersion = 1;

/// One intact record recovered from a journal file.
struct JournalRecord {
  std::uint64_t key{0};
  std::vector<std::uint8_t> payload;
};

class Journal {
 public:
  /// Append-policy read: validate the header against `fingerprint`, walk
  /// the records, truncate any torn tail in place, and return the intact
  /// records in file order. `subject` names what the fingerprint identifies
  /// ("configuration", "population spec", ...) in the refusal message.
  /// Errors: not_found (no file), version_mismatch (legacy MXWECKPT file or
  /// another journal version), failed_precondition (foreign fingerprint),
  /// corruption (bad magic, short header), io_error.
  [[nodiscard]] static Result<std::vector<JournalRecord>> replay(
      const std::string& path, std::uint64_t fingerprint,
      std::string_view subject);

  /// Snapshot-policy read: the payload of the file's only record. Never
  /// modifies the file. Errors as replay(), plus corruption for a torn
  /// record, a CRC mismatch, trailing bytes, or a record count other than
  /// one.
  [[nodiscard]] static Result<std::vector<std::uint8_t>> read_snapshot(
      const std::string& path, std::uint64_t fingerprint,
      std::string_view subject);

  /// Snapshot-policy write: atomically replace `path` with a header
  /// carrying `fingerprint` and one record (key 0) holding `payload`.
  [[nodiscard]] static Status write_snapshot(
      const std::string& path, std::uint64_t fingerprint,
      const std::vector<std::uint8_t>& payload);

  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open `path` for appending. `truncate` starts a fresh journal (header
  /// written); otherwise records append after the existing content
  /// (callers must have run replay() first so the torn tail is gone).
  [[nodiscard]] Status open(const std::string& path, std::uint64_t fingerprint,
                            bool truncate);

  /// Append one record and flush it to the OS.
  [[nodiscard]] Status append(std::uint64_t key,
                              const std::vector<std::uint8_t>& payload);

  [[nodiscard]] bool is_open() const { return out_.is_open(); }

  /// Bytes this process has appended (header included when it wrote one):
  /// the campaign's checkpoint-write cost, surfaced in the fleet heartbeat.
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::uint64_t bytes_written_{0};
};

}  // namespace nvmsec
