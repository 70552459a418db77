// Endian-safe binary serialisation primitives for the snapshot store.
//
// BinaryWriter appends explicitly little-endian fields to an in-memory
// buffer; BinaryReader consumes the same fields from a byte view, throwing
// std::runtime_error on underflow so truncated files fail loudly instead of
// yielding garbage. Doubles round-trip bit-exactly (std::bit_cast through
// uint64), which is what gives loaded models bit-identical predictions.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace remgen::util {

/// Appends little-endian fields to a growable byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Bit-exact: the value is written as its IEEE-754 bit pattern.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// u64 byte length followed by the raw bytes.
  void str(std::string_view v);
  void bytes(const void* data, std::size_t n);

  [[nodiscard]] const std::string& buffer() const noexcept { return buffer_; }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Consumes little-endian fields from a byte view. Every read checks the
/// remaining length and throws std::runtime_error("binary: truncated ...")
/// on underflow, and count() bounds element counts by the bytes left, so a
/// crafted length field cannot request an allocation larger than the input.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str();
  void bytes(void* out, std::size_t n);
  /// A view of the next `n` bytes, consumed.
  [[nodiscard]] std::string_view view(std::size_t n);
  /// Reads a u64 element count before a decoder sizes a container from it.
  /// Throws std::runtime_error unless that many elements of at least
  /// `min_element_bytes` each (taken as 1 when 0) fit in the remaining
  /// input. The check divides, so it cannot overflow; a decoder bounds a
  /// product of counts by passing the bytes one step of the outer count
  /// implies ("nx * 16" for each y-row of 16-byte cells).
  [[nodiscard]] std::size_t count(std::size_t min_element_bytes);

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  void require(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

}  // namespace remgen::util
