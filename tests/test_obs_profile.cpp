// Phase profiler fed by REMGEN_SCOPE: nesting and self-time math,
// deterministic aggregation at 1 vs 4 threads, zero-overhead-when-disabled
// behaviour, one scope feeding both sinks, task-trace event ordering,
// Amdahl accounting, and the JSON round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#include "exec/config.hpp"
#include "exec/parallel.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace {

using namespace remgen;

class ObsProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = exec::thread_count();
    obs::set_profiling_enabled(true);
    obs::reset_profiling();
  }
  void TearDown() override {
    obs::set_profiling_enabled(false);
    obs::reset_profiling();
    exec::set_thread_count(previous_threads_);
  }

  std::size_t previous_threads_ = 1;
};

void spin_for_us(std::uint64_t us) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() < static_cast<std::int64_t>(us)) {
  }
}

const obs::PhaseStats* find_phase(const obs::ProfileReport& report, std::string_view path) {
  for (const obs::PhaseStats& phase : report.phases) {
    if (phase.path == path) return &phase;
  }
  return nullptr;
}

TEST_F(ObsProfileTest, PhasesNestAndAccumulate) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  {
    REMGEN_SCOPE("outer");
    spin_for_us(2000);
    for (int i = 0; i < 3; ++i) {
      REMGEN_SCOPE("inner");
      spin_for_us(1000);
    }
  }
  const obs::ProfileReport report = obs::profile_report();
  const obs::PhaseStats* outer = find_phase(report, "outer");
  const obs::PhaseStats* inner = find_phase(report, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->count, 3u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(inner->name, "inner");

  // Inclusive parent wall covers the children; self = total - children.
  EXPECT_GE(outer->total_us, inner->total_us);
  EXPECT_EQ(outer->self_us, outer->total_us - inner->total_us);
  EXPECT_GE(outer->self_us, 1500u);  // the 2 ms spin outside the inner phases
  EXPECT_GT(inner->percent_of_parent, 0.0);
}

TEST_F(ObsProfileTest, SiblingPhasesComeOutSorted) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  {
    REMGEN_SCOPE("root");
    { REMGEN_SCOPE("zeta"); }
    { REMGEN_SCOPE("alpha"); }
    { REMGEN_SCOPE("mid"); }
  }
  const obs::ProfileReport report = obs::profile_report();
  ASSERT_EQ(report.phases.size(), 4u);
  EXPECT_EQ(report.phases[0].path, "root");
  EXPECT_EQ(report.phases[1].path, "root/alpha");
  EXPECT_EQ(report.phases[2].path, "root/mid");
  EXPECT_EQ(report.phases[3].path, "root/zeta");
}

TEST_F(ObsProfileTest, AggregationIsDeterministicAcrossThreadWidths) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  // The same work at 1 and 4 threads must produce the same phase structure
  // and the same counts; only the wall times may differ.
  const auto run = [] {
    obs::reset_profiling();
    REMGEN_SCOPE("work");
    exec::parallel_for(
        64, [](std::size_t) { REMGEN_SCOPE("work.item"); }, /*chunk=*/1,
        "work.items");
    return obs::profile_report();
  };

  exec::set_thread_count(1);
  const obs::ProfileReport sequential = run();
  exec::set_thread_count(4);
  const obs::ProfileReport parallel = run();

  ASSERT_EQ(sequential.phases.size(), parallel.phases.size());
  for (std::size_t i = 0; i < sequential.phases.size(); ++i) {
    EXPECT_EQ(sequential.phases[i].path, parallel.phases[i].path);
    EXPECT_EQ(sequential.phases[i].depth, parallel.phases[i].depth);
    EXPECT_EQ(sequential.phases[i].count, parallel.phases[i].count);
  }
  // Workers adopted the submitter's open phase, so every item landed under
  // "work" at both widths.
  const obs::PhaseStats* items = find_phase(parallel, "work/work.item");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->count, 64u);
}

TEST_F(ObsProfileTest, DisabledPhasesRecordNothing) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_profiling_enabled(false);
  obs::reset_profiling();
  {
    REMGEN_SCOPE("ghost");
    exec::parallel_for(8, [](std::size_t) {}, /*chunk=*/1, "ghost.items");
  }
  obs::set_profiling_enabled(true);  // report with a live epoch
  const obs::ProfileReport report = obs::profile_report();
  EXPECT_TRUE(report.phases.empty());
  EXPECT_EQ(report.amdahl.regions, 0u);
  EXPECT_EQ(report.task_events, 0u);
}

TEST_F(ObsProfileTest, DisabledPhaseIsCheap) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_profiling_enabled(false);
  // 1M disabled scope constructions must be a few ms at most: a relaxed load
  // and a branch each, no clock reads, no locks. Budget is generous (500 ms)
  // to stay robust on loaded CI machines while still catching an accidental
  // clock read or lock on the disabled path (those cost >1us each).
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    REMGEN_SCOPE("noop");
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  obs::set_profiling_enabled(true);
  EXPECT_LT(ms, 500.0);
}

TEST_F(ObsProfileTest, OneScopeFeedsBothSinks) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_enabled(true);
  obs::trace().clear();
  exec::set_thread_count(4);
  {
    REMGEN_SCOPE("sinks.outer");
    exec::parallel_for(
        8, [](std::size_t) { REMGEN_SCOPE("sinks.item"); }, /*chunk=*/1, "sinks.items");
  }
  obs::set_enabled(false);

  // Every phase in the profile is a span of the same name in the trace.
  std::set<std::string> span_names;
  for (const obs::SpanRecord& record : obs::trace().snapshot()) span_names.insert(record.name);
  const obs::ProfileReport report = obs::profile_report();
  ASSERT_FALSE(report.phases.empty());
  for (const obs::PhaseStats& phase : report.phases) {
    EXPECT_EQ(span_names.count(phase.name), 1u) << phase.path << " is not a span";
  }
  const obs::PhaseStats* outer = find_phase(report, "sinks.outer");
  const obs::PhaseStats* items = find_phase(report, "sinks.outer/sinks.item");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(items->count, 8u);
  obs::trace().clear();
}

TEST_F(ObsProfileTest, TaskEventsAreOrderedAndComplete) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_enabled(true);  // task tracing rides the telemetry gate
  exec::set_thread_count(4);
  exec::parallel_for(16, [](std::size_t) { spin_for_us(100); }, /*chunk=*/1, "ordered.work");
  obs::set_enabled(false);

  const std::vector<obs::TaskEvent> events = obs::task_events_snapshot();
  // Other tests may have recorded events; ours are labelled.
  std::vector<obs::TaskEvent> ours;
  for (const obs::TaskEvent& e : events) {
    if (e.label == "ordered.work") ours.push_back(e);
  }
  ASSERT_EQ(ours.size(), 16u);
  for (std::size_t i = 0; i < ours.size(); ++i) {
    EXPECT_EQ(ours[i].chunk_index, i);                 // sorted by chunk
    EXPECT_EQ(ours[i].region_id, ours[0].region_id);   // one region
    EXPECT_GE(ours[i].start_us, ours[i].enqueue_us);   // no time travel
    EXPECT_GE(ours[i].end_us, ours[i].start_us);
    EXPECT_EQ(ours[i].wait_us, ours[i].start_us - ours[i].enqueue_us);
    EXPECT_LE(ours[i].worker, 3u);  // 0 = caller, 1..3 = pool workers
  }
}

TEST_F(ObsProfileTest, TaskEventsRenderInChromeTrace) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_enabled(true);
  // Register at least one name deterministically: freshly spawned pool
  // workers name themselves, but may not have been scheduled yet.
  obs::name_current_thread("main");
  exec::set_thread_count(2);
  exec::parallel_for(4, [](std::size_t) {}, /*chunk=*/1, "traced.work");
  obs::set_enabled(false);

  obs::TraceExport input;
  const std::vector<obs::TaskEvent> tasks = obs::task_events_snapshot();
  input.tasks = tasks;
  input.thread_names = obs::trace().thread_names();
  std::ostringstream out;
  obs::write_chrome_trace(out, input);
  const obs::Json doc = obs::Json::parse(out.str());

  std::size_t task_events = 0;
  std::size_t name_events = 0;
  for (const obs::Json& event : doc.at("traceEvents").as_array()) {
    if (event.contains("cat") && event.at("cat").as_string() == "exec.task") ++task_events;
    if (event.at("name").as_string() == "thread_name") ++name_events;
  }
  EXPECT_GE(task_events, 4u);
  EXPECT_GE(name_events, 1u);  // at least the worker threads registered names
  EXPECT_TRUE(doc.contains("droppedTaskEvents"));
  EXPECT_TRUE(doc.contains("droppedSpansByThread"));
}

TEST_F(ObsProfileTest, AmdahlAccountsParallelRegionsAtAnyWidth) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  // Width 1: the sequential fallback still reports the region, so the
  // measured parallelizable fraction is meaningful.
  exec::set_thread_count(1);
  obs::reset_profiling();
  exec::parallel_for(8, [](std::size_t) { spin_for_us(500); }, /*chunk=*/1, "amdahl.work");
  obs::ProfileReport sequential = obs::profile_report();
  EXPECT_EQ(sequential.amdahl.regions, 1u);
  EXPECT_GT(sequential.amdahl.parallel_wall_us, 0u);
  EXPECT_LE(sequential.amdahl.serial_fraction, 1.0);
  EXPECT_GE(sequential.amdahl.serial_fraction, 0.0);

  // Width 4: same accounting through the pool.
  exec::set_thread_count(4);
  obs::reset_profiling();
  exec::parallel_for(8, [](std::size_t) { spin_for_us(500); }, /*chunk=*/1, "amdahl.work");
  obs::ProfileReport parallel = obs::profile_report();
  EXPECT_EQ(parallel.amdahl.regions, 1u);
  EXPECT_GT(parallel.amdahl.parallel_wall_us, 0u);
  EXPECT_EQ(parallel.amdahl.contexts, 4u);
  EXPECT_GT(parallel.amdahl.max_speedup, 1.0);
  // speedup_at is monotone in n and bounded by the Amdahl limit.
  EXPECT_LE(parallel.amdahl.speedup_at(2), parallel.amdahl.speedup_at(8));
  EXPECT_LE(parallel.amdahl.speedup_at(1024), parallel.amdahl.max_speedup + 1e-9);
}

TEST_F(ObsProfileTest, ReportRoundTripsThroughJson) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  {
    REMGEN_SCOPE("json.root");
    REMGEN_SCOPE("json.leaf");
    spin_for_us(200);
  }
  exec::set_thread_count(2);
  exec::parallel_for(4, [](std::size_t) {}, /*chunk=*/1, "json.region");

  const obs::ProfileReport report = obs::profile_report();
  const obs::ProfileReport parsed =
      obs::profile_from_json(obs::Json::parse(obs::profile_to_json(report).dump()));

  ASSERT_EQ(parsed.phases.size(), report.phases.size());
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(parsed.phases[i].path, report.phases[i].path);
    EXPECT_EQ(parsed.phases[i].count, report.phases[i].count);
    EXPECT_EQ(parsed.phases[i].total_us, report.phases[i].total_us);
    EXPECT_EQ(parsed.phases[i].self_us, report.phases[i].self_us);
  }
  EXPECT_EQ(parsed.amdahl.regions, report.amdahl.regions);
  EXPECT_EQ(parsed.amdahl.total_wall_us, report.amdahl.total_wall_us);
  EXPECT_DOUBLE_EQ(parsed.amdahl.serial_fraction, report.amdahl.serial_fraction);
  EXPECT_EQ(parsed.task_events, report.task_events);

  // And the human-readable table renders without blowing up.
  std::ostringstream table;
  obs::write_profile_table(table, report);
  EXPECT_NE(table.str().find("serial fraction"), std::string::npos);
}

}  // namespace
