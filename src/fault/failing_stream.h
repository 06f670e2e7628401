// I/O fault injection: a streambuf that starts failing after a byte quota.
//
// Wrap any std::streambuf (usually a stringbuf) and every read or write
// past `fail_after` bytes fails the way a full disk or a truncated pipe
// does: writes return EOF (which puts badbit on the owning ostream), reads
// hit EOF early. Used by the error-path tests for the endurance-map CSV
// reader (nvm/endurance_io), which must turn these failures into
// structured errors, never into a partial silently-accepted map.
#pragma once

#include <cstddef>
#include <streambuf>

namespace nvmsec {

class FailingStreamBuf final : public std::streambuf {
 public:
  /// Pass through to `inner` until `fail_after` bytes have moved in either
  /// direction; fail every byte after that.
  FailingStreamBuf(std::streambuf* inner, std::size_t fail_after)
      : inner_(inner), budget_(fail_after) {}

  [[nodiscard]] std::size_t bytes_passed() const { return passed_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return sync();
    if (passed_ >= budget_) return traits_type::eof();
    const int_type result = inner_->sputc(traits_type::to_char_type(ch));
    if (!traits_type::eq_int_type(result, traits_type::eof())) ++passed_;
    return result;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::streamsize written = 0;
    while (written < n && passed_ < budget_) {
      const std::streamsize room =
          static_cast<std::streamsize>(budget_ - passed_);
      const std::streamsize chunk = n - written < room ? n - written : room;
      const std::streamsize put = inner_->sputn(s + written, chunk);
      if (put <= 0) break;
      written += put;
      passed_ += static_cast<std::size_t>(put);
    }
    return written;
  }

  int_type underflow() override {
    if (passed_ >= budget_) return traits_type::eof();
    const int_type ch = inner_->sgetc();
    return ch;
  }

  int_type uflow() override {
    if (passed_ >= budget_) return traits_type::eof();
    const int_type ch = inner_->sbumpc();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++passed_;
    return ch;
  }

  std::streamsize xsgetn(char* s, std::streamsize n) override {
    if (passed_ >= budget_) return 0;
    const std::streamsize room = static_cast<std::streamsize>(budget_ - passed_);
    const std::streamsize want = n < room ? n : room;
    const std::streamsize got = inner_->sgetn(s, want);
    if (got > 0) passed_ += static_cast<std::size_t>(got);
    return got;
  }

  int sync() override { return inner_->pubsync(); }

 private:
  std::streambuf* inner_;
  std::size_t budget_;
  std::size_t passed_{0};
};

}  // namespace nvmsec
