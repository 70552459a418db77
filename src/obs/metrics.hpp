// Process-wide telemetry: a thread-safe metrics registry of monotonic
// counters, gauges and fixed-bucket histograms.
//
// Recording is lock-free (relaxed atomics) so future parallel stages can
// record without contention; only the first name lookup takes the registry
// mutex, and the instrumentation macros cache that lookup in a function-local
// static. Telemetry is gated twice:
//
//  * compile time — configure with -DREMGEN_OBS=OFF to define
//    REMGEN_OBS_DISABLED; `enabled()` becomes a constant `false` and every
//    instrumentation site folds away;
//  * run time — two gates, off by default, packed into one atomic word:
//    telemetry (metrics and trace spans; obs::set_enabled, switched on by
//    --metrics-out/--metrics-prom/--trace-out) and profiling (the phase tree
//    and Amdahl accounting; obs::set_profiling_enabled, --profile-out). When
//    off, an instrumentation site costs one relaxed load and a branch.
//
// Registered metrics live for the lifetime of the process: references
// returned by the registry are never invalidated (reset() zeroes values, it
// does not remove metrics), which is what makes the static caching sound.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace remgen::obs {

namespace detail {
inline constexpr unsigned kTelemetryGate = 1u;  ///< Metrics and trace spans.
inline constexpr unsigned kProfilingGate = 2u;  ///< Phase tree and Amdahl.
inline std::atomic<unsigned> g_gates{0};
}  // namespace detail

#if defined(REMGEN_OBS_DISABLED)
/// True when instrumentation was compiled in (-DREMGEN_OBS=ON, the default).
inline constexpr bool compiled() noexcept { return false; }
namespace detail {
inline constexpr unsigned gates() noexcept { return 0; }
}  // namespace detail
inline void set_enabled(bool) noexcept {}
inline void set_profiling_enabled(bool) noexcept {}
#else
inline constexpr bool compiled() noexcept { return true; }
namespace detail {
/// Both runtime gates in one relaxed load: what obs::Scope tests.
inline unsigned gates() noexcept { return g_gates.load(std::memory_order_relaxed); }
}  // namespace detail
inline void set_enabled(bool on) noexcept {
  if (on) {
    detail::g_gates.fetch_or(detail::kTelemetryGate, std::memory_order_relaxed);
  } else {
    detail::g_gates.fetch_and(~detail::kTelemetryGate, std::memory_order_relaxed);
  }
}
/// Enabling (re)starts the profile wall-clock epoch; disabling freezes it.
void set_profiling_enabled(bool on) noexcept;
#endif

/// Runtime telemetry switch (metrics and spans); constant false when
/// compiled out.
inline bool enabled() noexcept { return (detail::gates() & detail::kTelemetryGate) != 0; }
/// Runtime profiling switch (phase tree and Amdahl); constant false when
/// compiled out.
inline bool profiling_enabled() noexcept {
  return (detail::gates() & detail::kProfilingGate) != 0;
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus semantics: bucket i counts observations
/// <= upper_bounds[i]; one implicit +Inf bucket catches the rest).
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == upper_bounds().size() + 1 (last is +Inf).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Read-only copy of one histogram, for exporters.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;  ///< One extra for +Inf.
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Deterministic (name-sorted) copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Thread-safe name -> metric map. Lookup takes a mutex; the returned
/// references stay valid for the process lifetime.
class Registry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// The bounds are fixed by the first registration of `name`; later calls
  /// ignore `upper_bounds` and return the existing histogram.
  [[nodiscard]] Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every metric's value. Does NOT remove metrics (references stay
  /// valid), so cached instrumentation sites keep working.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every instrumentation site records into.
[[nodiscard]] Registry& registry();

}  // namespace remgen::obs

// Instrumentation macros. Each expansion caches its registry lookup in a
// block-scoped static, so steady state is one relaxed load, one branch and
// one relaxed atomic RMW. Names must be literals (the cache binds to the
// first name seen); use obs::registry() directly for dynamic names.
#define REMGEN_COUNTER_ADD(name, delta)                                             \
  do {                                                                              \
    if (::remgen::obs::enabled()) {                                                 \
      static ::remgen::obs::Counter& remgen_obs_counter_ =                          \
          ::remgen::obs::registry().counter(name);                                  \
      remgen_obs_counter_.add(static_cast<std::uint64_t>(delta));                   \
    }                                                                               \
  } while (0)

#define REMGEN_GAUGE_SET(name, value)                                               \
  do {                                                                              \
    if (::remgen::obs::enabled()) {                                                 \
      static ::remgen::obs::Gauge& remgen_obs_gauge_ =                              \
          ::remgen::obs::registry().gauge(name);                                    \
      remgen_obs_gauge_.set(static_cast<double>(value));                            \
    }                                                                               \
  } while (0)

// Trailing argument is the bucket list as a braced initializer, e.g.
//   REMGEN_HISTOGRAM_OBSERVE("radio.scan_detections", n, {1, 2, 4, 8, 16});
#define REMGEN_HISTOGRAM_OBSERVE(name, value, ...)                                  \
  do {                                                                              \
    if (::remgen::obs::enabled()) {                                                 \
      static ::remgen::obs::Histogram& remgen_obs_histogram_ =                      \
          ::remgen::obs::registry().histogram(name, std::vector<double>__VA_ARGS__); \
      remgen_obs_histogram_.observe(static_cast<double>(value));                    \
    }                                                                               \
  } while (0)
