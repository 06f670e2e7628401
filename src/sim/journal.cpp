#include "sim/journal.h"

#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>

#include "util/atomic_file.h"
#include "util/crc32.h"

namespace nvmsec {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
// len(u32) + key(u64), the part of the frame before the payload.
constexpr std::size_t kRecordHeadBytes = 4 + 8;
// Record head + crc(u32); payload excluded.
constexpr std::size_t kRecordOverhead = kRecordHeadBytes + 4;

// The container engine and sweep checkpoints used before they moved onto
// the journal framing; recognized only to refuse it with a clear message.
constexpr char kLegacyCheckpointMagic[8] = {'M', 'X', 'W', 'E',
                                            'C', 'K', 'P', 'T'};

void put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

std::uint32_t record_crc(const unsigned char* key_bytes,
                         const std::vector<std::uint8_t>& payload) {
  std::uint32_t state = crc32_update(crc32_init(), key_bytes, 8);
  state = crc32_update(state, payload.data(), payload.size());
  return crc32_final(state);
}

void write_header(std::ostream& out, std::uint64_t fingerprint) {
  char header[kHeaderBytes];
  std::memcpy(header, kJournalMagic, sizeof(kJournalMagic));
  put_u32(header + 8, kJournalVersion);
  put_u64(header + 12, fingerprint);
  out.write(header, sizeof(header));
}

Status write_record(std::ostream& out, const std::string& path,
                    std::uint64_t key,
                    const std::vector<std::uint8_t>& payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    return Status::failed_precondition(
        "journal '" + path + "': a " + std::to_string(payload.size()) +
        "-byte record exceeds the u32 record frame");
  }
  char head[kRecordHeadBytes];
  put_u32(head, static_cast<std::uint32_t>(payload.size()));
  put_u64(head + 4, key);
  char crc[4];
  put_u32(crc, record_crc(reinterpret_cast<const unsigned char*>(head + 4),
                          payload));
  out.write(head, sizeof(head));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  out.write(crc, sizeof(crc));
  return Status::ok_status();
}

/// One pass over a journal file: its intact records, where they end, and
/// why the walk stopped before the end of the file (ok when it did not).
struct Scan {
  std::vector<JournalRecord> records;
  std::uint64_t good_end{kHeaderBytes};
  std::uint64_t file_size{0};
  Status tail;
};

/// The one parser behind both read policies: header checks (magic,
/// version, fingerprint) are errors; a torn or CRC-failing record ends
/// the walk and is reported in Scan::tail.
Result<Scan> scan(const std::string& path, std::uint64_t fingerprint,
                  std::string_view subject) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::not_found("journal '" + path +
                             "' cannot be opened (does it exist?)");
  }
  unsigned char header[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  const auto header_bytes = static_cast<std::size_t>(in.gcount());
  if (header_bytes >= sizeof(kJournalMagic) &&
      std::memcmp(header, kJournalMagic, sizeof(kJournalMagic)) != 0) {
    if (std::memcmp(header, kLegacyCheckpointMagic,
                    sizeof(kLegacyCheckpointMagic)) == 0) {
      return Status::version_mismatch(
          "'" + path +
          "' is a legacy MXWECKPT checkpoint; this build reads MXWEJRNL "
          "journals only — delete it (the run starts over) or finish it "
          "with the build that wrote it");
    }
    return Status::corruption("'" + path + "' is not a journal (bad magic)");
  }
  if (header_bytes < sizeof(header)) {
    return Status::corruption("journal '" + path +
                              "': file shorter than the header");
  }
  const std::uint32_t version = get_u32(header + 8);
  if (version != kJournalVersion) {
    return Status::version_mismatch(
        "journal '" + path + "' has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kJournalVersion));
  }
  if (get_u64(header + 12) != fingerprint) {
    return Status::failed_precondition(
        "'" + path + "' was written by a different " + std::string(subject) +
        "; refusing to resume from it (delete it to start over)");
  }

  in.seekg(0, std::ios::end);
  Scan s;
  s.file_size = static_cast<std::uint64_t>(in.tellg());
  std::uint64_t offset = kHeaderBytes;
  const auto where = [&path, &offset] {
    return "journal '" + path + "': record at byte " + std::to_string(offset);
  };
  while (offset < s.file_size) {
    if (s.file_size - offset < kRecordOverhead) {
      s.tail = Status::corruption(where() + " is truncated");
      break;
    }
    unsigned char head[kRecordHeadBytes];
    in.seekg(static_cast<std::streamoff>(offset));
    if (!in.read(reinterpret_cast<char*>(head), sizeof(head))) {
      return Status::io_error(where() + ": short read");
    }
    const std::uint64_t len = get_u32(head);
    if (len > s.file_size - offset - kRecordOverhead) {
      s.tail = Status::corruption(where() + " is truncated (declares " +
                                  std::to_string(len) + " payload bytes)");
      break;
    }
    JournalRecord rec;
    rec.key = get_u64(head + 4);
    rec.payload.resize(len);
    unsigned char crc[4];
    if (!in.read(reinterpret_cast<char*>(rec.payload.data()),
                 static_cast<std::streamsize>(len)) ||
        !in.read(reinterpret_cast<char*>(crc), sizeof(crc))) {
      return Status::io_error(where() + ": short read");
    }
    if (get_u32(crc) != record_crc(head + 4, rec.payload)) {
      s.tail = Status::corruption(where() + ": CRC mismatch (file damaged?)");
      break;
    }
    s.records.push_back(std::move(rec));
    offset += kRecordOverhead + len;
    s.good_end = offset;
  }
  return s;
}

}  // namespace

Result<std::vector<JournalRecord>> Journal::replay(const std::string& path,
                                                   std::uint64_t fingerprint,
                                                   std::string_view subject) {
  Result<Scan> scanned = scan(path, fingerprint, subject);
  if (!scanned.ok()) return scanned.status();
  Scan& s = scanned.value();
  if (s.good_end < s.file_size) {
    // Torn tail from a mid-append SIGKILL: drop it so the next append does
    // not splice new bytes onto half a record.
    std::error_code ec;
    std::filesystem::resize_file(path, s.good_end, ec);
    if (ec) {
      return Status::io_error("journal '" + path +
                              "': cannot truncate torn tail: " + ec.message());
    }
  }
  return std::move(s.records);
}

Result<std::vector<std::uint8_t>> Journal::read_snapshot(
    const std::string& path, std::uint64_t fingerprint,
    std::string_view subject) {
  Result<Scan> scanned = scan(path, fingerprint, subject);
  if (!scanned.ok()) return scanned.status();
  Scan& s = scanned.value();
  if (!s.tail.ok()) return s.tail;
  if (s.records.size() != 1) {
    return Status::corruption("journal '" + path + "' holds " +
                              std::to_string(s.records.size()) +
                              " records; a snapshot holds exactly one");
  }
  return std::move(s.records.front().payload);
}

Status Journal::write_snapshot(const std::string& path,
                               std::uint64_t fingerprint,
                               const std::vector<std::uint8_t>& payload) {
  AtomicFileWriter writer(path);
  if (!writer.is_open()) return writer.open_status();
  write_header(writer.stream(), fingerprint);
  if (Status st = write_record(writer.stream(), path, /*key=*/0, payload);
      !st.ok()) {
    return st;
  }
  return writer.commit();
}

Status Journal::open(const std::string& path, std::uint64_t fingerprint,
                     bool truncate) {
  path_ = path;
  bytes_written_ = 0;
  const auto mode = std::ios::binary | std::ios::out |
                    (truncate ? std::ios::trunc : std::ios::app);
  out_.open(path, mode);
  if (!out_) {
    return Status::io_error("journal '" + path + "': cannot open for " +
                            (truncate ? "writing" : "appending"));
  }
  if (truncate) {
    write_header(out_, fingerprint);
    out_.flush();
    if (!out_) {
      return Status::io_error("journal '" + path + "': header write failed");
    }
    bytes_written_ += kHeaderBytes;
  }
  return Status::ok_status();
}

Status Journal::append(std::uint64_t key,
                       const std::vector<std::uint8_t>& payload) {
  if (!out_.is_open()) {
    return Status::failed_precondition("journal: append before open");
  }
  if (Status st = write_record(out_, path_, key, payload); !st.ok()) {
    return st;
  }
  out_.flush();
  if (!out_) {
    return Status::io_error("journal '" + path_ + "': append failed");
  }
  bytes_written_ += kRecordOverhead + payload.size();
  return Status::ok_status();
}

}  // namespace nvmsec
