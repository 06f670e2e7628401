#include "util/serialize.h"

namespace nvmsec {

Status StateReader::take(std::size_t n, const std::uint8_t*& out) {
  if (!status_.ok()) return status_;
  if (size_ - pos_ < n) {
    status_ = Status::data_loss(
        "state buffer too short: need " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + ", have " + std::to_string(size_ - pos_));
    return status_;
  }
  out = buf_ + pos_;
  pos_ += n;
  return Status{};
}

Status StateReader::u8(std::uint8_t& out) {
  const std::uint8_t* p = nullptr;
  if (Status s = take(1, p); !s.ok()) return s;
  out = p[0];
  return Status{};
}

Status StateReader::u32(std::uint32_t& out) {
  const std::uint8_t* p = nullptr;
  if (Status s = take(4, p); !s.ok()) return s;
  out = 0;
  for (int i = 0; i < 4; ++i) out |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return Status{};
}

Status StateReader::u64(std::uint64_t& out) {
  const std::uint8_t* p = nullptr;
  if (Status s = take(8, p); !s.ok()) return s;
  out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return Status{};
}

Status StateReader::f64(double& out) {
  std::uint64_t bits = 0;
  if (Status s = u64(bits); !s.ok()) return s;
  out = std::bit_cast<double>(bits);
  return Status{};
}

Status StateReader::boolean(bool& out) {
  std::uint8_t v = 0;
  if (Status s = u8(v); !s.ok()) return s;
  out = v != 0;
  return Status{};
}

Status StateReader::count(std::uint64_t& n, std::size_t elem_size) {
  if (Status s = u64(n); !s.ok()) return s;
  if (n > remaining() / elem_size) {
    return status_ = Status::corruption(
        "container count " + std::to_string(n) + " exceeds remaining buffer");
  }
  return Status{};
}

Status StateReader::str(std::string& out) {
  std::uint64_t n = 0;
  if (Status s = count(n, 1); !s.ok()) return s;
  const std::uint8_t* p = nullptr;
  if (Status s = take(static_cast<std::size_t>(n), p); !s.ok()) return s;
  out.assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
  return Status{};
}

Status StateReader::vec_u32(std::vector<std::uint32_t>& out) {
  std::uint64_t n = 0;
  if (Status s = count(n, 4); !s.ok()) return s;
  out.resize(static_cast<std::size_t>(n));
  for (auto& x : out) {
    if (Status s = u32(x); !s.ok()) return s;
  }
  return Status{};
}

Status StateReader::vec_u64(std::vector<std::uint64_t>& out) {
  std::uint64_t n = 0;
  if (Status s = count(n, 8); !s.ok()) return s;
  out.resize(static_cast<std::size_t>(n));
  for (auto& x : out) {
    if (Status s = u64(x); !s.ok()) return s;
  }
  return Status{};
}

Status StateReader::vec_bool(std::vector<bool>& out) {
  std::uint64_t n = 0;
  if (Status s = count(n, 1); !s.ok()) return s;
  out.assign(static_cast<std::size_t>(n), false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint8_t v = 0;
    if (Status s = u8(v); !s.ok()) return s;
    out[i] = v != 0;
  }
  return Status{};
}

Status StateReader::bytes(std::vector<std::uint8_t>& out) {
  std::uint64_t n = 0;
  if (Status s = count(n, 1); !s.ok()) return s;
  const std::uint8_t* p = nullptr;
  if (Status s = take(static_cast<std::size_t>(n), p); !s.ok()) return s;
  out.assign(p, p + n);
  return Status{};
}

}  // namespace nvmsec
