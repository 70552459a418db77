#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/args.hpp"
#include "util/file.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace remgen::obs {

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
/// map onto a "remgen_" prefix with separators folded to underscores.
std::string prometheus_name(std::string_view name) {
  std::string out = "remgen_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Sanitisation is lossy ("a.b" and "a_b" both fold to "remgen_a_b"), so
/// emitted names are assigned through this collision tracker: the first raw
/// name wins the plain form, later colliders get a "_dup2"/"_dup3" suffix —
/// a scrape therefore never contains duplicate series. Histograms reserve
/// their whole derived family (_bucket/_sum/_count) so a gauge named e.g.
/// "x_count" cannot collide with histogram "x"'s count series either.
class PrometheusNamer {
 public:
  /// Returns a unique emitted base name for `raw` (+ optional type suffix,
  /// e.g. "_total"), reserving `family` suffixes derived from it too.
  std::string assign(std::string_view raw, std::string_view type_suffix,
                     std::span<const std::string_view> family = {}) {
    const std::string base = prometheus_name(raw) + std::string(type_suffix);
    for (int attempt = 1;; ++attempt) {
      const std::string candidate =
          attempt == 1 ? base : base + "_dup" + std::to_string(attempt);
      if (is_free(candidate, family)) {
        reserve(candidate, family);
        return candidate;
      }
    }
  }

 private:
  [[nodiscard]] bool is_free(const std::string& candidate,
                             std::span<const std::string_view> family) const {
    if (used_.count(candidate) != 0) return false;
    for (const std::string_view suffix : family) {
      if (used_.count(candidate + std::string(suffix)) != 0) return false;
    }
    return true;
  }

  void reserve(const std::string& candidate, std::span<const std::string_view> family) {
    used_.insert(candidate);
    for (const std::string_view suffix : family) used_.insert(candidate + std::string(suffix));
  }

  std::set<std::string> used_;
};

constexpr std::string_view kHistogramFamily[] = {"_bucket", "_sum", "_count"};

std::string bound_label(double bound) {
  if (bound == static_cast<double>(static_cast<long long>(bound))) {
    return util::format("{}", static_cast<long long>(bound));
  }
  // Shortest %g form that round-trips, so le="1.5" rather than le="1.500000"
  // and scrape labels stay stable across writers.
  for (int precision = 1; precision <= 17; ++precision) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, bound);
    if (std::strtod(buffer, nullptr) == bound) return buffer;
  }
  return util::format("{:.17g}", bound);
}

}  // namespace

Json metrics_to_json(const MetricsSnapshot& snapshot) {
  Json::Object counters;
  for (const auto& [name, value] : snapshot.counters) counters[name] = value;
  Json::Object gauges;
  for (const auto& [name, value] : snapshot.gauges) gauges[name] = value;
  Json::Object histograms;
  for (const auto& [name, h] : snapshot.histograms) {
    Json::Array bounds;
    for (const double b : h.upper_bounds) bounds.emplace_back(b);
    Json::Array buckets;
    for (const std::uint64_t c : h.bucket_counts) buckets.emplace_back(c);
    Json::Object entry;
    entry["upper_bounds"] = Json(std::move(bounds));
    entry["bucket_counts"] = Json(std::move(buckets));
    entry["count"] = h.count;
    entry["sum"] = h.sum;
    histograms[name] = Json(std::move(entry));
  }
  Json::Object root;
  root["counters"] = Json(std::move(counters));
  root["gauges"] = Json(std::move(gauges));
  root["histograms"] = Json(std::move(histograms));
  return Json(std::move(root));
}

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot) {
  out << metrics_to_json(snapshot).dump(2) << '\n';
}

void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot) {
  PrometheusNamer namer;
  const auto help = [&out](const std::string& pname, const std::string& raw) {
    out << "# HELP " << pname << " remgen metric '" << raw << "'\n";
  };
  for (const auto& [name, value] : snapshot.counters) {
    const std::string pname = namer.assign(name, "_total");
    help(pname, name);
    out << "# TYPE " << pname << " counter\n" << pname << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string pname = namer.assign(name, "");
    help(pname, name);
    out << "# TYPE " << pname << " gauge\n"
        << pname << ' ' << util::format("{:.17g}", value) << '\n';
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string pname = namer.assign(name, "", kHistogramFamily);
    help(pname, name);
    out << "# TYPE " << pname << " histogram\n";
    // Prometheus buckets are cumulative.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
      cumulative += h.bucket_counts[i];
      out << pname << "_bucket{le=\"" << bound_label(h.upper_bounds[i]) << "\"} " << cumulative
          << '\n';
    }
    out << pname << "_bucket{le=\"+Inf\"} " << h.count << '\n';
    out << pname << "_sum " << util::format("{:.17g}", h.sum) << '\n';
    out << pname << "_count " << h.count << '\n';
  }
}

namespace {

std::string json_number(double value) { return Json(value).dump(); }

void append_span_event(std::string& out, const SpanRecord& r) {
  out += "{\"name\":" + json_escape(r.name);
  out += ",\"cat\":" + json_escape(std::string_view(r.name).substr(0, r.name.find('.')));
  out += ",\"ph\":\"";
  out += r.phase;
  out += "\",\"pid\":1,\"tid\":" + std::to_string(r.tid);
  out += ",\"ts\":" + std::to_string(r.start_us);
  // 'X' is a complete span, 'i' a thread-scoped instant.
  out += r.phase == 'X' ? ",\"dur\":" + std::to_string(r.dur_us) : std::string(",\"s\":\"t\"");
  out += ",\"args\":{\"span_id\":" + std::to_string(r.id);
  if (r.parent_id != 0) out += ",\"parent_id\":" + std::to_string(r.parent_id);
  out += ",\"depth\":" + std::to_string(r.depth);
  out += ",\"sim_start_s\":" + json_number(r.sim_start_s);
  if (r.phase == 'X') {
    out += ",\"sim_end_s\":" + json_number(r.sim_end_s);
    out += ",\"sim_dur_s\":" + json_number(r.sim_end_s - r.sim_start_s);
  }
  for (const auto& [key, value] : r.args) out += "," + json_escape(key) + ":" + json_escape(value);
  out += "}}";
}

void append_task_event(std::string& out, const TaskEvent& t) {
  out += "{\"name\":" + json_escape(t.label);
  out += ",\"cat\":\"exec.task\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(t.tid);
  out += ",\"ts\":" + std::to_string(t.start_us);
  out += ",\"dur\":" + std::to_string(t.end_us - t.start_us);
  out += ",\"args\":{\"region\":" + std::to_string(t.region_id);
  out += ",\"chunk\":" + std::to_string(t.chunk_index);
  out += ",\"worker\":" + std::to_string(t.worker);
  out += ",\"wait_us\":" + std::to_string(t.wait_us);
  out += ",\"idle_us\":" + std::to_string(t.idle_us) + "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TraceExport& input) {
  // Written event by event rather than through a Json document: a trace
  // holds one event per scope visit, and building the document for them
  // cost about six times as much as writing the text.
  std::string text = "{\"traceEvents\":[";
  const auto next = [&text] { text += text.back() == '[' ? "\n" : ",\n"; };
  // thread_name metadata first: chrome://tracing applies it to the whole
  // document regardless of position, but leading with it keeps the file
  // human-skimmable.
  for (const auto& [tid, name] : input.thread_names) {
    next();
    text += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
            ",\"args\":{\"name\":" + json_escape(name) + "}}";
  }
  for (const SpanRecord& r : input.spans) {
    next();
    append_span_event(text, r);
  }
  // Thread-pool chunks as per-thread lanes: each event renders on the lane
  // of the thread that executed it, alongside any spans that thread opened.
  for (const TaskEvent& t : input.tasks) {
    next();
    append_task_event(text, t);
  }
  text += "\n],\"displayTimeUnit\":\"ms\",\"droppedSpans\":" + std::to_string(input.dropped_spans);
  text += ",\"droppedSpansByThread\":{";
  for (const auto& [tid, count] : input.dropped_by_thread) {
    if (text.back() != '{') text += ',';
    text += "\"" + std::to_string(tid) + "\":" + std::to_string(count);
  }
  text += "},\"droppedTaskEvents\":" + std::to_string(input.dropped_task_events) + "}\n";
  out << text;
}

void write_chrome_trace(std::ostream& out, std::span<const SpanRecord> records,
                        std::uint64_t dropped_spans) {
  TraceExport input;
  input.spans = records;
  input.dropped_spans = dropped_spans;
  write_chrome_trace(out, input);
}

bool export_text_file(const std::string& path, std::string_view text) {
  try {
    util::write_file(path, text);
  } catch (const std::exception& e) {
    util::logf(util::LogLevel::Warn, "obs", "{}", e.what());
    return false;
  }
  return true;
}

bool export_metrics_json_file(const std::string& path) {
  std::ostringstream out;
  write_metrics_json(out, registry().snapshot());
  return export_text_file(path, out.view());
}

bool export_prometheus_file(const std::string& path) {
  std::ostringstream out;
  write_prometheus(out, registry().snapshot());
  return export_text_file(path, out.view());
}

bool export_trace_file(const std::string& path) {
  if (trace().dropped() > 0) {
    util::logf(util::LogLevel::Warn, "obs", "trace buffer overflowed; {} spans dropped",
               trace().dropped());
  }
  const std::vector<SpanRecord> records = trace().snapshot();
  const std::vector<TaskEvent> tasks = task_events_snapshot();
  TraceExport input;
  input.spans = records;
  input.tasks = tasks;
  input.thread_names = trace().thread_names();
  input.dropped_spans = trace().dropped();
  input.dropped_by_thread = trace().dropped_by_thread();
  input.dropped_task_events = task_events_dropped();
  std::ostringstream out;
  write_chrome_trace(out, input);
  return export_text_file(path, out.view());
}

void start_telemetry(const util::Args& args, const TelemetryOptions& options) {
  if (options.always_on || args.has("metrics-out") || args.has("metrics-prom") ||
      args.has("trace-out")) {
    if (options.announce && !compiled()) {
      std::fprintf(stderr,
                   "warning: telemetry was compiled out (-DREMGEN_OBS=OFF); "
                   "exports will be empty\n");
    }
    set_enabled(true);
  }
  if (args.has("profile-out")) {
    if (options.announce && !compiled()) {
      std::fprintf(stderr,
                   "warning: the profiler was compiled out (-DREMGEN_OBS=OFF); "
                   "the profile will be empty\n");
    }
    set_profiling_enabled(true);
  }
  name_current_thread("main");
}

bool finish_telemetry(const util::Args& args, const TelemetryOptions& options) {
  bool ok = true;
  const auto report = [&](bool written, const std::string& message) {
    if (!written) {
      ok = false;
    } else if (options.announce) {
      std::printf("%s\n", message.c_str());
    }
  };
  if (const std::string path = args.value("metrics-out"); !path.empty()) {
    report(export_metrics_json_file(path), "metrics snapshot written to " + path);
  }
  if (const std::string path = args.value("metrics-prom"); !path.empty()) {
    report(export_prometheus_file(path), "prometheus metrics written to " + path);
  }
  if (const std::string path = args.value("trace-out"); !path.empty()) {
    report(export_trace_file(path),
           util::format("chrome trace ({} events) written to {}", trace().size(), path));
  }
  if (const std::string path = args.value("profile-out"); !path.empty()) {
    report(export_profile_json_file(path),
           "profile written to " + path + " (inspect with remgen-profile)");
  }
  return ok;
}

}  // namespace remgen::obs
