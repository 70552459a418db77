#include "util/file.hpp"

#include <fstream>
#include <stdexcept>

#include "util/fmt.hpp"

namespace remgen::util {

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) throw std::runtime_error(format("cannot write '{}'", path));
}

}  // namespace remgen::util
