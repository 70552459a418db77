// Checked whole-file writes.
#pragma once

#include <string>
#include <string_view>

namespace remgen::util {

/// Writes `bytes` to `path`, closes the file and only then checks it, so a
/// payload small enough to sit in the stream buffer still reports a failed
/// write (a full disk) as std::runtime_error("cannot write '<path>'"). The
/// writer of snapshot and delta files, the CLIs' CSV and response outputs,
/// and the metrics, trace and profile exports.
void write_file(const std::string& path, std::string_view bytes);

}  // namespace remgen::util
