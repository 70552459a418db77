// The one instrumentation scope: REMGEN_SCOPE("core.build_rem").
//
// A Scope is an RAII guard around the rest of its block. It reads the clock
// once at start and once at exit and feeds whichever sinks are on:
//
//  * the phase tree (obs::profile_report, --profile-out) when profiling is
//    on: a count and inclusive wall time under the scope's name path;
//  * the trace buffer (obs::trace, --trace-out) when telemetry is on: one
//    complete span with wall and simulated time, its id and its parent's id.
//
// Both sinks see the same name at the same nesting, so every phase in a
// profile is a span in the trace of the same run. Names follow
// `<src module>.<op>` ("store.make_delta"); the Chrome-trace exporter takes an
// event's category from the module prefix.
//
// Open scopes form one thread-local stack of frames. A parallel region
// captures the submitting thread's innermost frame (current_frame) and its
// workers adopt it (adopt_frame), so a scope opened inside a parallel body
// nests under the submitter's scope in both sinks at every --threads value.
//
// With both gates off a scope costs one relaxed load and a branch.
#pragma once

#include <string_view>

#include "obs/metrics.hpp"
#include "util/fmt.hpp"

namespace remgen::obs {

/// One open scope on some thread's stack; opaque outside obs.
struct Frame;

class Scope {
 public:
  explicit Scope(std::string_view name) {
    if (const unsigned gates = detail::gates(); gates != 0) open(name, gates);
  }
  ~Scope() {
    if (frame_ != nullptr) close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Attaches a key/value pair to the trace span (Chrome-trace "args").
  /// No-op unless the span is traced.
  void arg(std::string_view key, std::string_view value);
  template <typename T>
  void arg(std::string_view key, const T& value) {
    if (frame_ != nullptr && traced()) arg(key, std::string_view(util::format("{}", value)));
  }

 private:
  void open(std::string_view name, unsigned gates);
  void close();
  [[nodiscard]] bool traced() const noexcept;

  Frame* frame_ = nullptr;
};

/// Records a zero-duration trace event (e.g. "crtp.radio_off") under the
/// innermost open scope.
void instant(std::string_view name);

/// The calling thread's innermost open frame, or null.
[[nodiscard]] const Frame* current_frame() noexcept;

/// Makes `frame` the calling thread's innermost frame and returns the one it
/// replaces. A thread-pool worker adopts the frame its region's submitter
/// captured with current_frame(), and restores the returned frame once the
/// region is done; `frame` must stay open until then.
const Frame* adopt_frame(const Frame* frame) noexcept;

}  // namespace remgen::obs

#define REMGEN_OBS_CONCAT_INNER_(a, b) a##b
#define REMGEN_OBS_CONCAT_(a, b) REMGEN_OBS_CONCAT_INNER_(a, b)

/// Scope covering the rest of the enclosing block.
#define REMGEN_SCOPE(name) \
  ::remgen::obs::Scope REMGEN_OBS_CONCAT_(remgen_obs_scope_, __LINE__)(name)
