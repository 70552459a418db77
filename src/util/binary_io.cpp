#include "util/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/fmt.hpp"

namespace remgen::util {

void BinaryWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v & 0xff));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void BinaryWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    u8(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void BinaryWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    u8(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void BinaryWriter::str(std::string_view v) {
  u64(v.size());
  bytes(v.data(), v.size());
}

void BinaryWriter::bytes(const void* data, std::size_t n) {
  buffer_.append(static_cast<const char*>(data), n);
}

void BinaryReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw std::runtime_error(util::format("binary: truncated input (need {} bytes at offset {}, "
                                          "have {})",
                                          n, pos_, remaining()));
  }
}

std::uint8_t BinaryReader::u8() {
  require(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t BinaryReader::u16() {
  const auto lo = static_cast<std::uint16_t>(u8());
  const auto hi = static_cast<std::uint16_t>(u8());
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t BinaryReader::u32() {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(u8()) << shift;
  }
  return v;
}

std::uint64_t BinaryReader::u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(u8()) << shift;
  }
  return v;
}

std::string BinaryReader::str() {
  const std::uint64_t n = u64();
  // A length greater than the remaining bytes is corruption, not a short
  // buffer mid-stream; require() produces the loud error either way.
  require(n);
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

void BinaryReader::bytes(void* out, std::size_t n) {
  require(n);
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
}

std::string_view BinaryReader::view(std::size_t n) {
  require(n);
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::size_t BinaryReader::count(std::size_t min_element_bytes) {
  const std::size_t at = pos_;
  const std::uint64_t n = u64();
  const std::size_t bound = remaining() / std::max<std::size_t>(min_element_bytes, 1);
  if (n > bound) {
    throw std::runtime_error(util::format("binary: count {} at offset {} exceeds the {} "
                                          "elements the remaining {} bytes can hold",
                                          n, at, bound, remaining()));
  }
  return static_cast<std::size_t>(n);
}

std::uint32_t crc32(std::string_view data) {
  // Table generated once per process; the polynomial is the reflected IEEE
  // 802.3 constant, so results match zlib's crc32().
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace remgen::util
