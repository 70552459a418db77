// The section framing REMSNAP1 (store/snapshot.hpp) and REMDELT1
// (store/delta.hpp) share, internal to the store:
//   magic   8 bytes
//   version u32
//   count   u32 number of sections
//   section u32 id | u64 payload size | u32 crc32(payload) | payload
// `what` ("snapshot", "delta") prefixes every error message.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string_view>

#include "util/binary_io.hpp"

namespace remgen::store {

struct Section {
  std::uint32_t id = 0;
  util::BinaryWriter payload;
};

/// Writes the framed file to `out` and returns its size in bytes. Throws
/// std::runtime_error("<what>: write failed") if `out` fails.
std::size_t write_sections(std::ostream& out, std::string_view magic, std::uint32_t version,
                           std::span<const Section> sections, std::string_view what);

/// Reads a framed file from `in` and hands each section, in file order, to
/// `visit(id, payload reader)` once its CRC has been checked. Throws
/// std::runtime_error on bad magic, another version, or a CRC mismatch.
void read_sections(std::istream& in, std::string_view magic, std::uint32_t version,
                   std::string_view what,
                   const std::function<void(std::uint32_t, util::BinaryReader&)>& visit);

}  // namespace remgen::store
