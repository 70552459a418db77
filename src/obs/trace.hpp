// The trace buffer: completed spans from obs::Scope (see obs/scope.hpp) and
// instant events, with wall-clock microseconds on the process-wide steady
// epoch and the simulated time the co-simulation loop last published with
// obs::set_sim_time (the UAV clock, every tick). Spans carry their id and
// their parent's, so traces export directly as a tree in Chrome
// trace_event JSON (chrome://tracing, Perfetto).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace remgen::obs {

namespace detail {
inline std::atomic<double> g_sim_time_s{0.0};
}  // namespace detail

/// Publishes the current simulated time; spans sample it at their start/end.
inline void set_sim_time(double now_s) noexcept {
  detail::g_sim_time_s.store(now_s, std::memory_order_relaxed);
}
[[nodiscard]] inline double sim_time() noexcept {
  return detail::g_sim_time_s.load(std::memory_order_relaxed);
}

/// Microseconds since the process trace epoch (steady clock; first use).
[[nodiscard]] std::uint64_t wall_clock_us();

/// Small dense id of the calling thread (1, 2, ... in first-use order); the
/// same id spans and task events carry, and the Chrome-trace "tid".
[[nodiscard]] std::uint32_t current_tid();

/// Registers a human-readable name for the calling thread ("main",
/// "worker-3"); exported as Chrome-trace thread_name metadata so trace lanes
/// are readable in chrome://tracing / Perfetto.
void name_current_thread(std::string_view name);

/// One recorded trace event.
struct SpanRecord {
  std::string name;  ///< `<module>.<op>`; the module is the export category.
  char phase = 'X';  ///< 'X' complete span, 'i' instant event.
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  double sim_start_s = 0.0;
  double sim_end_s = 0.0;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  ///< 0 when the span has no parent.
  std::uint32_t depth = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Thread-safe, bounded buffer of completed spans. Records past the capacity
/// are dropped (and counted) instead of growing without bound.
class TraceRecorder {
 public:
  void record(SpanRecord record);
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Saturation drops broken down by the recording thread's tid.
  [[nodiscard]] std::map<std::uint32_t, std::uint64_t> dropped_by_thread() const;
  /// tid -> registered thread name (see name_current_thread).
  [[nodiscard]] std::map<std::uint32_t, std::string> thread_names() const;
  void set_thread_name(std::uint32_t tid, std::string name);
  void set_capacity(std::size_t capacity);
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::size_t capacity_ = 1u << 18;
  std::atomic<std::size_t> dropped_{0};
  std::map<std::uint32_t, std::uint64_t> dropped_by_tid_;
  std::map<std::uint32_t, std::string> thread_names_;
};

/// The process-wide trace buffer.
[[nodiscard]] TraceRecorder& trace();

}  // namespace remgen::obs
