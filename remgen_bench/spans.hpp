// In-memory spans around the benchmark's calls into each remgen layer.
//
// A span is named "<layer>.<call>" after the src/ module it times, records
// start and end on one steady clock, the span that caused it and, for
// served queries, the request id. Spans are kept in memory and written out
// when the run ends. Nothing here touches the library: every span wraps a
// public call made from the benchmark's own code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace remgen::bench {

/// Microseconds on the benchmark's steady clock (0 = first call).
[[nodiscard]] double now_us();

/// The steady-clock instant `us` microseconds after the now_us() origin.
[[nodiscard]] std::chrono::steady_clock::time_point at_us(double us);

struct SpanRecord {
  const char* name = "";       ///< "<layer>.<call>"; static storage.
  double start_us = 0.0;
  double end_us = -1.0;        ///< -1 while open.
  std::int64_t parent = -1;    ///< Index of the causing span, -1 for roots.
  std::int64_t request = -1;   ///< Request id, -1 when not a request.
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on); }

  /// Opens a span under the innermost span open on this thread; -1 when off.
  std::int64_t open(const char* name, std::int64_t request = -1);
  /// Closes an open span at `end_us`, or now when negative.
  void close(std::int64_t id, double end_us = -1.0);

  /// Records an already-finished interval (events timed across threads or
  /// across an event loop); -1 when off.
  std::int64_t record(const char* name, double start_us, double end_us, std::int64_t parent,
                      std::int64_t request = -1);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Writes every span as a JSON array; false when the file is unwritable.
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< Guarded by mutex_.
};

[[nodiscard]] Tracer& tracer();

/// RAII span on the calling thread.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t request = -1)
      : id_(tracer().open(name, request)) {}
  ~Scope() { tracer().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t id_;
};

/// Time breakdown of the spans under every root named `root`.
struct Breakdown {
  std::size_t roots = 0;
  double wall_us = 0.0;     ///< Summed root durations (the end-to-end time).
  double covered_us = 0.0;  ///< Part of it covered by the roots' child spans.
  std::map<std::string, double> self_us;  ///< Per layer, inside those roots.
  [[nodiscard]] double coverage() const { return wall_us > 0.0 ? covered_us / wall_us : 0.0; }
};

[[nodiscard]] Breakdown breakdown(const std::vector<SpanRecord>& spans, const std::string& root);

/// Durations in seconds of every closed span with this exact name.
[[nodiscard]] std::vector<double> durations_s(const std::vector<SpanRecord>& spans,
                                              const std::string& name);

}  // namespace remgen::bench
