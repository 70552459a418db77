#include "obs/scope.hpp"

#include <atomic>
#include <memory>
#include <vector>

#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace remgen::obs {

struct Frame {
  const Frame* parent = nullptr;
  detail::PhaseNode* node = nullptr;  ///< Phase-tree node; null when not profiled.
  std::uint64_t start_us = 0;
  SpanRecord span;                    ///< span.id == 0 when not traced.
};

namespace {

/// The calling thread's frames. Each frame has its own heap slot, reused in
/// LIFO order, so its address stays valid while a pool worker points at it.
/// `top` is the innermost frame: the thread's own, or one it adopted.
struct Stack {
  std::vector<std::unique_ptr<Frame>> slots;
  std::size_t depth = 0;
  const Frame* top = nullptr;
};

Stack& stack() {
  thread_local Stack instance;
  return instance;
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Opens a trace record under the nearest traced frame at or above `parent`.
void begin_span(SpanRecord& span, std::string_view name, const Frame* parent,
                std::uint64_t now_us) {
  while (parent != nullptr && parent->span.id == 0) parent = parent->parent;
  span.name = std::string(name);
  span.start_us = now_us;
  span.sim_start_s = sim_time();
  span.tid = current_tid();
  span.id = next_span_id();
  span.parent_id = parent != nullptr ? parent->span.id : 0;
  span.depth = parent != nullptr ? parent->span.depth + 1 : 0;
}

/// The phase node of the nearest profiled frame at or above `frame`; null
/// (the tree root) when there is none.
detail::PhaseNode* phase_parent(const Frame* frame) {
  while (frame != nullptr && frame->node == nullptr) frame = frame->parent;
  return frame != nullptr ? frame->node : nullptr;
}

}  // namespace

void Scope::open(std::string_view name, unsigned gates) {
  Stack& s = stack();
  if (s.depth == s.slots.size()) s.slots.push_back(std::make_unique<Frame>());
  Frame& frame = *s.slots[s.depth++];
  frame.parent = s.top;
  frame.start_us = wall_clock_us();
  frame.node = (gates & detail::kProfilingGate) != 0
                   ? detail::phase_child(phase_parent(s.top), name)
                   : nullptr;
  frame.span = SpanRecord{};
  if ((gates & detail::kTelemetryGate) != 0) begin_span(frame.span, name, s.top, frame.start_us);
  s.top = &frame;
  frame_ = &frame;
}

void Scope::close() {
  Frame& frame = *frame_;
  const std::uint64_t dur_us = wall_clock_us() - frame.start_us;
  if (frame.node != nullptr) detail::phase_exit(frame.node, dur_us);
  if (frame.span.id != 0) {
    frame.span.dur_us = dur_us;
    frame.span.sim_end_s = sim_time();
    trace().record(std::move(frame.span));
  }
  Stack& s = stack();
  s.top = frame.parent;
  --s.depth;
}

bool Scope::traced() const noexcept { return frame_->span.id != 0; }

void Scope::arg(std::string_view key, std::string_view value) {
  if (frame_ == nullptr || !traced()) return;
  frame_->span.args.emplace_back(std::string(key), std::string(value));
}

void instant(std::string_view name) {
  if (!enabled()) return;
  SpanRecord record;
  begin_span(record, name, stack().top, wall_clock_us());
  record.phase = 'i';
  record.sim_end_s = record.sim_start_s;
  trace().record(std::move(record));
}

const Frame* current_frame() noexcept { return stack().top; }

const Frame* adopt_frame(const Frame* frame) noexcept {
  Stack& s = stack();
  const Frame* previous = s.top;
  s.top = frame;
  return previous;
}

}  // namespace remgen::obs
