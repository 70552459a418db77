#include "store/sections.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/fmt.hpp"

namespace remgen::store {

std::size_t write_sections(std::ostream& out, std::string_view magic, std::uint32_t version,
                           std::span<const Section> sections, std::string_view what) {
  util::BinaryWriter header;
  header.bytes(magic.data(), magic.size());
  header.u32(version);
  header.u32(static_cast<std::uint32_t>(sections.size()));
  out.write(header.buffer().data(), static_cast<std::streamsize>(header.size()));
  std::size_t bytes = header.size();
  for (const Section& section : sections) {
    util::BinaryWriter frame;
    frame.u32(section.id);
    frame.u64(section.payload.size());
    frame.u32(util::crc32(section.payload.buffer()));
    out.write(frame.buffer().data(), static_cast<std::streamsize>(frame.size()));
    out.write(section.payload.buffer().data(),
              static_cast<std::streamsize>(section.payload.size()));
    bytes += frame.size() + section.payload.size();
  }
  if (!out) throw std::runtime_error(util::format("{}: write failed", what));
  return bytes;
}

void read_sections(std::istream& in, std::string_view magic, std::uint32_t version,
                   std::string_view what,
                   const std::function<void(std::uint32_t, util::BinaryReader&)>& visit) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  util::BinaryReader r(bytes);

  if (r.remaining() < magic.size() || r.view(magic.size()) != magic) {
    throw std::runtime_error(util::format("{}: bad magic (not a REM {})", what, what));
  }
  if (const std::uint32_t found = r.u32(); found != version) {
    throw std::runtime_error(
        util::format("{}: unsupported version {} (expected {})", what, found, version));
  }
  const std::uint32_t sections = r.u32();
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::uint32_t id = r.u32();
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    const std::string_view payload = r.view(size);
    if (util::crc32(payload) != crc) {
      throw std::runtime_error(util::format("{}: CRC mismatch in section {}", what, id));
    }
    util::BinaryReader section(payload);
    visit(id, section);
  }
}

}  // namespace remgen::store
