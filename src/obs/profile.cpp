#include "obs/profile.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace remgen::obs {

namespace detail {

/// One node of the phase tree. Every thread's scopes land in this one tree:
/// the mutex guards `children` (a name-sorted map with stable node
/// addresses, so the report comes out in deterministic order) and the
/// counters are atomics.
struct PhaseNode {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_us{0};
  std::mutex mutex;
  std::map<std::string, PhaseNode, std::less<>> children;
};

}  // namespace detail

namespace {

using detail::PhaseNode;

PhaseNode& phase_root() {
  static PhaseNode* root = new PhaseNode;  // leaked: outlives all threads
  return *root;
}

constexpr std::size_t kTaskBufferCapacity = 1u << 14;

/// Single-producer task buffer: the owning thread appends and publishes the
/// new size with a release store; snapshot readers acquire the size and read
/// only the published prefix. No locks on the append path.
struct TaskBuffer {
  std::vector<TaskEvent> events{kTaskBufferCapacity};
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
};

struct TaskRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<TaskBuffer>> buffers;
};

TaskRegistry& task_registry() {
  static TaskRegistry* instance = new TaskRegistry;  // leaked: outlives all threads
  return *instance;
}

/// The calling thread's task buffer, registered on first use.
TaskBuffer& local_tasks() {
  thread_local const std::shared_ptr<TaskBuffer> buffer = [] {
    auto created = std::make_shared<TaskBuffer>();
    TaskRegistry& reg = task_registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

// Amdahl accumulators + the profiling wall-clock epoch.
std::atomic<std::uint64_t> g_parallel_wall_us{0};
std::atomic<std::uint64_t> g_parallel_busy_us{0};
std::atomic<std::uint64_t> g_regions{0};
std::atomic<std::size_t> g_contexts{1};
std::atomic<std::uint64_t> g_epoch_us{0};
std::atomic<std::uint64_t> g_frozen_us{0};  ///< End of epoch once disabled.

/// Appends `node`'s children depth-first (siblings sorted by name) and
/// returns their summed inclusive time.
std::uint64_t emit_phases(PhaseNode& node, const std::string& path, std::uint32_t depth,
                          std::uint64_t parent_total_us, std::vector<PhaseStats>& out) {
  std::uint64_t children_total = 0;
  const std::lock_guard<std::mutex> lock(node.mutex);
  for (auto& [name, child] : node.children) {
    PhaseStats stats;
    stats.path = path.empty() ? name : path + "/" + name;
    stats.name = name;
    stats.depth = depth;
    stats.count = child.count.load(std::memory_order_relaxed);
    stats.total_us = child.total_us.load(std::memory_order_relaxed);
    stats.percent_of_parent =
        parent_total_us > 0
            ? 100.0 * static_cast<double>(stats.total_us) / static_cast<double>(parent_total_us)
            : 0.0;
    children_total += stats.total_us;
    // Recurse with a copy of the path and an index, not a reference: pushing
    // grandchildren may reallocate `out`.
    const std::string child_path = stats.path;
    const std::size_t row = out.size();
    out.push_back(std::move(stats));
    const std::uint64_t grandchildren = emit_phases(child, child_path, depth + 1,
                                                    out[row].total_us, out);
    // Clamped at 0: parallel children can overlap the parent's wall.
    out[row].self_us = out[row].total_us > grandchildren ? out[row].total_us - grandchildren : 0;
  }
  return children_total;
}

}  // namespace

#if !defined(REMGEN_OBS_DISABLED)
void set_profiling_enabled(bool on) noexcept {
  const unsigned was =
      on ? detail::g_gates.fetch_or(detail::kProfilingGate, std::memory_order_relaxed)
         : detail::g_gates.fetch_and(~detail::kProfilingGate, std::memory_order_relaxed);
  const bool was_on = (was & detail::kProfilingGate) != 0;
  if (on && !was_on) {
    g_epoch_us.store(wall_clock_us(), std::memory_order_relaxed);
    g_frozen_us.store(0, std::memory_order_relaxed);
  } else if (!on && was_on) {
    g_frozen_us.store(wall_clock_us(), std::memory_order_relaxed);
  }
}
#endif

PhaseNode* detail::phase_child(PhaseNode* parent, std::string_view name) {
  PhaseNode& node = parent != nullptr ? *parent : phase_root();
  const std::lock_guard<std::mutex> lock(node.mutex);
  auto it = node.children.find(name);
  if (it == node.children.end()) it = node.children.try_emplace(std::string(name)).first;
  return &it->second;
}

void detail::phase_exit(PhaseNode* node, std::uint64_t dur_us) noexcept {
  node->count.fetch_add(1, std::memory_order_relaxed);
  node->total_us.fetch_add(dur_us, std::memory_order_relaxed);
}

void record_task_event(TaskEvent event) {
  TaskBuffer& buffer = local_tasks();
  const std::size_t n = buffer.size.load(std::memory_order_relaxed);
  if (n >= buffer.events.size()) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events[n] = std::move(event);
  buffer.size.store(n + 1, std::memory_order_release);
}

std::vector<TaskEvent> task_events_snapshot() {
  std::vector<TaskEvent> out;
  TaskRegistry& reg = task_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const std::shared_ptr<TaskBuffer>& buffer : reg.buffers) {
    const std::size_t n = buffer->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) out.push_back(buffer->events[i]);
  }
  std::sort(out.begin(), out.end(), [](const TaskEvent& a, const TaskEvent& b) {
    if (a.region_id != b.region_id) return a.region_id < b.region_id;
    return a.chunk_index < b.chunk_index;
  });
  return out;
}

std::uint64_t task_events_dropped() {
  std::uint64_t dropped = 0;
  TaskRegistry& reg = task_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const std::shared_ptr<TaskBuffer>& buffer : reg.buffers) {
    dropped += buffer->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

void note_parallel_region(std::uint64_t wall_us, std::uint64_t busy_us,
                          std::size_t contexts) {
  if (!profiling_enabled()) return;
  g_parallel_wall_us.fetch_add(wall_us, std::memory_order_relaxed);
  g_parallel_busy_us.fetch_add(busy_us, std::memory_order_relaxed);
  g_regions.fetch_add(1, std::memory_order_relaxed);
  g_contexts.store(contexts, std::memory_order_relaxed);
}

double AmdahlReport::speedup_at(std::size_t n) const {
  if (n == 0) return 1.0;
  const double s = std::clamp(serial_fraction, 0.0, 1.0);
  return 1.0 / (s + (1.0 - s) / static_cast<double>(n));
}

ProfileReport profile_report() {
  ProfileReport report;

  {
    TaskRegistry& reg = task_registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const std::shared_ptr<TaskBuffer>& buffer : reg.buffers) {
      report.task_events += buffer->size.load(std::memory_order_acquire);
      report.task_events_dropped += buffer->dropped.load(std::memory_order_relaxed);
    }
  }

  const std::uint64_t epoch = g_epoch_us.load(std::memory_order_relaxed);
  const std::uint64_t frozen = g_frozen_us.load(std::memory_order_relaxed);
  const std::uint64_t end = frozen != 0 ? frozen : wall_clock_us();
  report.amdahl.total_wall_us = end > epoch ? end - epoch : 0;
  report.amdahl.parallel_wall_us = g_parallel_wall_us.load(std::memory_order_relaxed);
  report.amdahl.parallel_busy_us = g_parallel_busy_us.load(std::memory_order_relaxed);
  report.amdahl.regions = g_regions.load(std::memory_order_relaxed);
  report.amdahl.contexts = g_contexts.load(std::memory_order_relaxed);
  if (report.amdahl.total_wall_us > 0) {
    const double parallel =
        std::min<double>(static_cast<double>(report.amdahl.parallel_wall_us),
                         static_cast<double>(report.amdahl.total_wall_us));
    report.amdahl.serial_fraction =
        1.0 - parallel / static_cast<double>(report.amdahl.total_wall_us);
  }
  report.amdahl.max_speedup =
      1.0 / std::max(report.amdahl.serial_fraction, 1e-9);

  const std::uint64_t root_total =
      emit_phases(phase_root(), "", 0, report.amdahl.total_wall_us, report.phases);
  if (report.amdahl.total_wall_us > 0) {
    report.coverage =
        static_cast<double>(root_total) / static_cast<double>(report.amdahl.total_wall_us);
  }
  return report;
}

void reset_profiling() {
  {
    PhaseNode& root = phase_root();
    const std::lock_guard<std::mutex> lock(root.mutex);
    root.children.clear();
  }
  TaskRegistry& reg = task_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const std::shared_ptr<TaskBuffer>& buffer : reg.buffers) {
    buffer->size.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
  g_parallel_wall_us.store(0, std::memory_order_relaxed);
  g_parallel_busy_us.store(0, std::memory_order_relaxed);
  g_regions.store(0, std::memory_order_relaxed);
  g_contexts.store(1, std::memory_order_relaxed);
  g_epoch_us.store(wall_clock_us(), std::memory_order_relaxed);
  g_frozen_us.store(0, std::memory_order_relaxed);
}

Json profile_to_json(const ProfileReport& report) {
  Json::Object amdahl;
  amdahl["total_wall_us"] = report.amdahl.total_wall_us;
  amdahl["parallel_wall_us"] = report.amdahl.parallel_wall_us;
  amdahl["parallel_busy_us"] = report.amdahl.parallel_busy_us;
  amdahl["regions"] = report.amdahl.regions;
  amdahl["contexts"] = static_cast<std::uint64_t>(report.amdahl.contexts);
  amdahl["serial_fraction"] = report.amdahl.serial_fraction;
  amdahl["max_speedup"] = report.amdahl.max_speedup;
  amdahl["speedup_at_contexts"] = report.amdahl.speedup_at(report.amdahl.contexts);

  Json::Array phases;
  phases.reserve(report.phases.size());
  for (const PhaseStats& phase : report.phases) {
    Json::Object row;
    row["path"] = phase.path;
    row["name"] = phase.name;
    row["depth"] = static_cast<std::uint64_t>(phase.depth);
    row["count"] = phase.count;
    row["total_us"] = phase.total_us;
    row["self_us"] = phase.self_us;
    row["percent_of_parent"] = phase.percent_of_parent;
    phases.push_back(Json(std::move(row)));
  }

  Json::Object root;
  root["amdahl"] = Json(std::move(amdahl));
  root["phases"] = Json(std::move(phases));
  root["coverage"] = report.coverage;
  root["task_events"] = report.task_events;
  root["task_events_dropped"] = report.task_events_dropped;
  return Json(std::move(root));
}

ProfileReport profile_from_json(const Json& doc) {
  ProfileReport report;
  const Json& amdahl = doc.at("amdahl");
  report.amdahl.total_wall_us = static_cast<std::uint64_t>(amdahl.at("total_wall_us").as_double());
  report.amdahl.parallel_wall_us =
      static_cast<std::uint64_t>(amdahl.at("parallel_wall_us").as_double());
  report.amdahl.parallel_busy_us =
      static_cast<std::uint64_t>(amdahl.at("parallel_busy_us").as_double());
  report.amdahl.regions = static_cast<std::uint64_t>(amdahl.at("regions").as_double());
  report.amdahl.contexts = static_cast<std::size_t>(amdahl.at("contexts").as_double());
  report.amdahl.serial_fraction = amdahl.at("serial_fraction").as_double();
  report.amdahl.max_speedup = amdahl.at("max_speedup").as_double();
  for (const Json& row : doc.at("phases").as_array()) {
    PhaseStats phase;
    phase.path = row.at("path").as_string();
    phase.name = row.at("name").as_string();
    phase.depth = static_cast<std::uint32_t>(row.at("depth").as_double());
    phase.count = static_cast<std::uint64_t>(row.at("count").as_double());
    phase.total_us = static_cast<std::uint64_t>(row.at("total_us").as_double());
    phase.self_us = static_cast<std::uint64_t>(row.at("self_us").as_double());
    phase.percent_of_parent = row.at("percent_of_parent").as_double();
    report.phases.push_back(std::move(phase));
  }
  report.coverage = doc.at("coverage").as_double();
  report.task_events = static_cast<std::uint64_t>(doc.at("task_events").as_double());
  report.task_events_dropped =
      static_cast<std::uint64_t>(doc.at("task_events_dropped").as_double());
  return report;
}

void write_profile_table(std::ostream& out, const ProfileReport& report) {
  out << std::left << std::setw(52) << "phase" << std::right << std::setw(10) << "count"
      << std::setw(13) << "total(ms)" << std::setw(12) << "self(ms)" << std::setw(10)
      << "%parent" << '\n';
  for (const PhaseStats& phase : report.phases) {
    std::string label(static_cast<std::size_t>(phase.depth) * 2, ' ');
    label += phase.name;
    if (label.size() > 51) label = label.substr(0, 48) + "...";
    out << std::left << std::setw(52) << label << std::right << std::setw(10) << phase.count
        << std::setw(13) << std::fixed << std::setprecision(3)
        << static_cast<double>(phase.total_us) / 1000.0 << std::setw(12)
        << static_cast<double>(phase.self_us) / 1000.0 << std::setw(9) << std::setprecision(1)
        << phase.percent_of_parent << "%" << '\n';
  }
  const AmdahlReport& a = report.amdahl;
  out << '\n'
      << "wall clock       : " << std::fixed << std::setprecision(3)
      << static_cast<double>(a.total_wall_us) / 1e6 << " s  (phase coverage "
      << std::setprecision(1) << report.coverage * 100.0 << "%)\n"
      << "parallel regions : " << a.regions << "  (wall " << std::setprecision(3)
      << static_cast<double>(a.parallel_wall_us) / 1e6 << " s, busy "
      << static_cast<double>(a.parallel_busy_us) / 1e6 << " s, " << a.contexts
      << " contexts)\n"
      << "serial fraction  : " << std::setprecision(3) << a.serial_fraction << '\n'
      << "max speedup      : " << std::setprecision(2) << a.max_speedup << "x (Amdahl limit; "
      << a.speedup_at(a.contexts) << "x at " << a.contexts << " contexts)\n";
  if (report.task_events > 0 || report.task_events_dropped > 0) {
    out << "task events      : " << report.task_events << " (" << report.task_events_dropped
        << " dropped)\n";
  }
}

bool export_profile_json_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    util::logf(util::LogLevel::Warn, "obs", "cannot open {} for profile export", path);
    return false;
  }
  out << profile_to_json(profile_report()).dump(2) << '\n';
  return bool(out);
}

}  // namespace remgen::obs
