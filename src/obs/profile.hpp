// Performance profiler: the phase tree obs::Scope feeds, per-task execution
// tracing, and an Amdahl (serial-fraction) breakdown.
//
// Three cooperating pieces, all opt-in at runtime:
//
//  * Phases — with profiling on, every REMGEN_SCOPE (obs/scope.hpp) adds its
//    count and inclusive wall time to one process-wide phase tree keyed by
//    name path. Siblings are kept sorted and pool workers nest under the
//    submitting thread's scope, so counts are schedule-independent and the
//    phase structure is identical at every --threads value (wall times are,
//    of course, honest measurements and vary run to run).
//
//  * Task trace — exec::ThreadPool records one TaskEvent per executed chunk
//    (enqueue/start/end timestamps, worker id, region label) into lock-free
//    per-thread buffers (single-producer append with a release-published
//    size; the exporter is the only reader). Events compose with --trace-out
//    as per-thread lanes in Chrome tracing.
//
//  * Amdahl accounting — every top-level parallel region, at any width,
//    reports its wall time; the report derives the measured serial fraction
//    s = 1 - parallel_wall / total_wall and the implied max speedup 1/s.
//
// Like the metrics registry, everything is gated: compiled out entirely
// under -DREMGEN_OBS=OFF, and off at runtime unless obs::set_profiling_enabled
// (metrics.hpp) or, for task events, either gate is on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace remgen::obs {

namespace detail {
/// One node of the process-wide phase tree; defined in profile.cpp.
struct PhaseNode;
/// The child `name` of `parent` (null: the root), created on first use.
[[nodiscard]] PhaseNode* phase_child(PhaseNode* parent, std::string_view name);
/// Adds one completed visit of `dur_us` to `node`.
void phase_exit(PhaseNode* node, std::uint64_t dur_us) noexcept;
}  // namespace detail

/// One executed thread-pool chunk.
struct TaskEvent {
  std::string label;          ///< Region label ("core.sweep", ...).
  std::uint64_t region_id = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t worker = 0;       ///< 0 = submitting thread, 1..N = pool worker.
  std::uint32_t tid = 0;          ///< obs trace tid of the executing thread.
  std::uint64_t enqueue_us = 0;   ///< Region submission time.
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::uint64_t wait_us = 0;      ///< start - enqueue (queue wait).
  std::uint64_t idle_us = 0;      ///< Gap since this worker's previous chunk
                                  ///< in the same region (0 for its first).
};

/// Appends into the calling thread's buffer (single-producer, lock-free).
void record_task_event(TaskEvent event);

/// Every recorded task event, sorted by (region_id, chunk_index) — a
/// deterministic order at any thread count.
[[nodiscard]] std::vector<TaskEvent> task_events_snapshot();

/// Events dropped across all per-thread buffers (capacity saturation).
[[nodiscard]] std::uint64_t task_events_dropped();

/// Amdahl accounting hook: exec reports each top-level parallelizable
/// region's wall time and summed busy (chunk execution) time.
void note_parallel_region(std::uint64_t wall_us, std::uint64_t busy_us,
                          std::size_t contexts);

/// One row of the merged phase table, in depth-first order with siblings
/// sorted by name.
struct PhaseStats {
  std::string path;   ///< "core.build_rem/core.sweep/ml.knn.predict".
  std::string name;   ///< Leaf component of `path`.
  std::uint32_t depth = 0;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;  ///< Inclusive wall time, summed over threads.
  std::uint64_t self_us = 0;   ///< total - children (clamped at 0: parallel
                               ///< children can overlap the parent's wall).
  double percent_of_parent = 0.0;  ///< 100 * total / parent total (of the
                                   ///< profiled wall clock for root phases;
                                   ///< can exceed 100 under parallelism).
};

/// The measured serial fraction and what it implies.
struct AmdahlReport {
  std::uint64_t total_wall_us = 0;     ///< Profiling-enabled epoch to report.
  std::uint64_t parallel_wall_us = 0;  ///< Sum of parallelizable-region walls.
  std::uint64_t parallel_busy_us = 0;  ///< Summed chunk execution time.
  std::uint64_t regions = 0;
  std::size_t contexts = 1;        ///< Execution contexts of the last region.
  double serial_fraction = 1.0;    ///< 1 - parallel_wall / total_wall.
  double max_speedup = 1.0;        ///< 1 / serial_fraction (Amdahl limit).
  /// Amdahl's law at `n` contexts: 1 / (s + (1-s)/n).
  [[nodiscard]] double speedup_at(std::size_t n) const;
};

/// The merged profile: phase table + Amdahl breakdown + task-trace tallies.
struct ProfileReport {
  std::vector<PhaseStats> phases;
  AmdahlReport amdahl;
  double coverage = 0.0;  ///< Root-phase wall over total wall, 0..1+.
  std::uint64_t task_events = 0;
  std::uint64_t task_events_dropped = 0;
};

/// The phase tree, task-buffer tallies and Amdahl breakdown as one report.
/// Deterministic: phases come out in sorted depth-first order with
/// schedule-independent counts. Call after parallel regions have drained.
[[nodiscard]] ProfileReport profile_report();

/// Clears the phase tree, task buffers and Amdahl accumulators, and restarts
/// the profile wall-clock epoch. Call with no scope open.
void reset_profiling();

/// JSON round-trip for --profile-out and the remgen-profile report tool.
[[nodiscard]] Json profile_to_json(const ProfileReport& report);
[[nodiscard]] ProfileReport profile_from_json(const Json& doc);

/// Human-readable per-phase table plus the Amdahl breakdown.
void write_profile_table(std::ostream& out, const ProfileReport& report);

/// Writes profile_report() as JSON. False (with a warning) on I/O failure.
bool export_profile_json_file(const std::string& path);

}  // namespace remgen::obs
