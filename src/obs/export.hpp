// Telemetry exporters: Prometheus text exposition for the metrics registry,
// a JSON metrics snapshot, and Chrome trace_event JSON that opens directly in
// chrome://tracing / Perfetto.
#pragma once

#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace remgen::util {
class Args;
}  // namespace remgen::util

namespace remgen::obs {

/// Metrics snapshot as a JSON document:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {"buckets": ...}}}.
[[nodiscard]] Json metrics_to_json(const MetricsSnapshot& snapshot);
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot);

/// Prometheus text exposition (# HELP/# TYPE lines, histograms with
/// _bucket/_sum/_count series). Metric names are sanitised
/// ("campaign.samples_collected" -> "remgen_campaign_samples_collected_total");
/// sanitisation collisions ("a.b" vs "a_b") are detected and deduplicated
/// with a "_dupN" suffix so a scrape never contains duplicate series.
void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot);

/// Everything one Chrome-trace document carries: spans, per-chunk task
/// events from the thread pool (rendered as per-thread lanes), registered
/// thread names (emitted as thread_name metadata events), and drop counts.
struct TraceExport {
  std::span<const SpanRecord> spans;
  std::span<const TaskEvent> tasks;
  std::map<std::uint32_t, std::string> thread_names;
  std::uint64_t dropped_spans = 0;
  std::map<std::uint32_t, std::uint64_t> dropped_by_thread;
  std::uint64_t dropped_task_events = 0;
};

/// Chrome trace_event JSON ({"traceEvents": [...], "droppedSpans": N,
/// "droppedSpansByThread": {...}}); complete spans become "ph":"X" events and
/// instants "ph":"i", with sim-clock bounds and span ids/parents carried in
/// "args"; an event's "cat" is its name's module prefix ("store" for
/// "store.load"). Task events become "cat":"exec.task" X events on their
/// executing thread's lane; thread names come out as "thread_name" metadata
/// so lanes read as main / worker-N in chrome://tracing and Perfetto. The
/// drop counts are surfaced in the document root so a trace that stops
/// mid-run is distinguishable from a short run.
void write_chrome_trace(std::ostream& out, const TraceExport& input);
void write_chrome_trace(std::ostream& out, std::span<const SpanRecord> records,
                        std::uint64_t dropped_spans = 0);

/// Writes `text` to `path` through util::write_file. On failure logs the
/// warning "cannot write '<path>'" and returns false.
bool export_text_file(const std::string& path, std::string_view text);

/// Convenience file sinks over the global registry / trace buffer, through
/// export_text_file.
bool export_metrics_json_file(const std::string& path);
bool export_prometheus_file(const std::string& path);
bool export_trace_file(const std::string& path);

/// How a tool's telemetry flags behave.
struct TelemetryOptions {
  bool always_on = false;  ///< Telemetry on without an export flag (daemons).
  bool announce = false;   ///< Warn when compiled out; print each file written.
};

/// Switches the gates a tool's flags ask for: --metrics-out, --metrics-prom
/// and --trace-out turn telemetry on, --profile-out turns profiling on. Also
/// names the calling thread "main" for trace lanes.
void start_telemetry(const util::Args& args, const TelemetryOptions& options = {});

/// Writes every telemetry file the flags name. False when any could not be
/// written, so the tool can exit nonzero instead of silently passing.
[[nodiscard]] bool finish_telemetry(const util::Args& args,
                                    const TelemetryOptions& options = {});

}  // namespace remgen::obs
