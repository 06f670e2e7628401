// Binary state serialization for checkpoints.
//
// A deliberately tiny, explicit format: fixed-width little-endian integers,
// doubles as IEEE-754 bit patterns, containers as (u64 count, elements).
// No reflection, no varints — every component writes exactly the fields it
// owns and reads them back in the same order, and the reader detects short
// input on every call instead of running off the end (the "short read"
// class of checkpoint corruption surfaces as a Status, never as UB).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace nvmsec {

class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (std::uint32_t x : v) u32(x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void vec_bool(const std::vector<bool>& v) {
    u64(v.size());
    for (bool b : v) u8(b ? 1 : 0);
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads the StateWriter format back. Every accessor returns a Status;
/// after the first failure the reader stays failed (callers may chain reads
/// and check once at the end).
class StateReader {
 public:
  explicit StateReader(const std::vector<std::uint8_t>& buf)
      : buf_(buf.data()), size_(buf.size()) {}
  StateReader(const std::uint8_t* data, std::size_t size)
      : buf_(data), size_(size) {}

  Status u8(std::uint8_t& out);
  Status u32(std::uint32_t& out);
  Status u64(std::uint64_t& out);
  Status f64(double& out);
  Status boolean(bool& out);
  Status str(std::string& out);
  Status vec_u32(std::vector<std::uint32_t>& out);
  Status vec_u64(std::vector<std::uint64_t>& out);
  Status vec_bool(std::vector<bool>& out);
  Status bytes(std::vector<std::uint8_t>& out);
  /// Reads a container's element count and fails with corruption when the
  /// rest of the buffer cannot hold that many `elem_size`-byte elements.
  /// Counts are corruption-controlled: loaders call this before allocating
  /// for them.
  Status count(std::uint64_t& n, std::size_t elem_size);

  /// First error encountered so far (ok while healthy).
  [[nodiscard]] Status status() const { return status_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool exhausted() const { return status_.ok() && pos_ == size_; }

 private:
  Status take(std::size_t n, const std::uint8_t*& out);

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_{0};
  Status status_;
};

}  // namespace nvmsec
