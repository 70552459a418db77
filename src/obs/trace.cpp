#include "obs/trace.hpp"

#include <chrono>

#include "obs/metrics.hpp"

namespace remgen::obs {

namespace {

std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> counter{0};
  thread_local const std::uint32_t tid = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

}  // namespace

std::uint32_t current_tid() { return this_thread_tid(); }

void name_current_thread(std::string_view name) {
  trace().set_thread_name(this_thread_tid(), std::string(name));
}

std::uint64_t wall_clock_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch).count());
}

void TraceRecorder::record(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (records_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    ++dropped_by_tid_[record.tid];
    // Surface the saturation in the metrics snapshot too, so an exported
    // trace that silently stops mid-run is explainable from the metrics.
    REMGEN_COUNTER_ADD("obs.trace_dropped_spans", 1);
    return;
  }
  records_.push_back(std::move(record));
}

std::map<std::uint32_t, std::uint64_t> TraceRecorder::dropped_by_thread() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_by_tid_;
}

std::map<std::uint32_t, std::string> TraceRecorder::thread_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return thread_names_;
}

void TraceRecorder::set_thread_name(std::uint32_t tid, std::string name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[tid] = std::move(name);
}

std::vector<SpanRecord> TraceRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::size_t TraceRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
}

void TraceRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  dropped_by_tid_.clear();
  // Thread names survive clear(): the threads still exist, and a fresh trace
  // from the same process should stay readable.
}

TraceRecorder& trace() {
  // Leaked: pool workers still starting up at process exit name themselves
  // and record here after static destructors have run.
  static TraceRecorder* instance = new TraceRecorder;
  return *instance;
}

}  // namespace remgen::obs
