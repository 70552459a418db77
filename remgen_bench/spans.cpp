#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "obs/json.hpp"

namespace remgen::bench {

namespace {

std::chrono::steady_clock::time_point origin() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin())
      .count();
}

std::chrono::steady_clock::time_point at_us(double us) {
  return origin() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::micro>(us));
}

namespace {

thread_local std::vector<std::int64_t> open_stack;

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double union_length(std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      total += end - start;
      cursor = end;
    }
  }
  return total;
}

}  // namespace

std::int64_t Tracer::open(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = open_stack.empty() ? -1 : open_stack.back();
  span.request = request;
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    span.start_us = now_us();
    spans_.push_back(span);
  }
  open_stack.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id, double end_us) {
  if (id < 0) return;
  const double end = end_us >= 0.0 ? end_us : now_us();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

std::int64_t Tracer::record(const char* name, double start_us, double end_us,
                            std::int64_t parent, std::int64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(SpanRecord{name, start_us, end_us, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  obs::Json::Array out;
  for (std::size_t i = 0; const SpanRecord& s : spans()) {
    out.push_back(obs::Json(obs::Json::Object{
        {"id", obs::Json(static_cast<std::int64_t>(i++))},
        {"name", obs::Json(s.name)},
        {"start_us", obs::Json(s.start_us)},
        {"end_us", obs::Json(s.end_us)},
        {"parent", obs::Json(s.parent)},
        {"request", obs::Json(s.request)},
    }));
  }
  std::ofstream file(path);
  file << obs::Json(std::move(out)).dump() << '\n';
  return static_cast<bool>(file);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Breakdown breakdown(const std::vector<SpanRecord>& spans, const std::string& root) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  const auto child_union = [&](std::size_t i) {
    std::vector<std::pair<double, double>> intervals;
    for (const std::size_t c : children[i]) {
      if (spans[c].end_us >= spans[c].start_us) {
        intervals.emplace_back(spans[c].start_us, spans[c].end_us);
      }
    }
    return union_length(std::move(intervals), spans[i].start_us, spans[i].end_us);
  };

  Breakdown result;
  std::vector<std::size_t> stack;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (spans[r].name != root || spans[r].end_us < spans[r].start_us) continue;
    ++result.roots;
    result.wall_us += spans[r].end_us - spans[r].start_us;
    result.covered_us += child_union(r);
    stack.assign(children[r].begin(), children[r].end());
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      if (spans[i].end_us < spans[i].start_us) continue;
      const std::string name = spans[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      result.self_us[layer] += spans[i].end_us - spans[i].start_us - child_union(i);
      stack.insert(stack.end(), children[i].begin(), children[i].end());
    }
  }
  return result;
}

std::vector<double> durations_s(const std::vector<SpanRecord>& spans, const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name && s.end_us >= s.start_us) out.push_back((s.end_us - s.start_us) / 1e6);
  }
  return out;
}

}  // namespace remgen::bench
