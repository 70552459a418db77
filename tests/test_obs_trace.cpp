// Trace spans from obs::Scope: nesting (across pool workers too),
// simulated-vs-wall time capture, instant events, runtime gating, and the
// Chrome trace_event exporter round-tripped through the JSON parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "exec/config.hpp"
#include "exec/parallel.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace {

using namespace remgen;

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::trace().clear();
    obs::set_sim_time(0.0);
  }
  void TearDown() override { obs::set_enabled(false); }
};

const obs::SpanRecord* find_record(const std::vector<obs::SpanRecord>& records,
                                   std::string_view name) {
  const auto it = std::find_if(records.begin(), records.end(),
                               [name](const obs::SpanRecord& r) { return r.name == name; });
  return it == records.end() ? nullptr : &*it;
}

TEST_F(ObsTraceTest, SpansNestIntoATree) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  {
    obs::Scope outer("outer");
    {
      obs::Scope inner("inner");
      obs::instant("ping");
    }
  }
  const std::vector<obs::SpanRecord> records = obs::trace().snapshot();
  ASSERT_EQ(records.size(), 3u);

  const obs::SpanRecord* outer = find_record(records, "outer");
  const obs::SpanRecord* inner = find_record(records, "inner");
  const obs::SpanRecord* ping = find_record(records, "ping");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(ping, nullptr);

  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->parent_id, outer->id);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(ping->parent_id, inner->id);
  EXPECT_EQ(ping->phase, 'i');
  // Children complete (and therefore record) before their parent.
  EXPECT_LE(outer->start_us, inner->start_us);
  EXPECT_GE(outer->start_us + outer->dur_us, inner->start_us + inner->dur_us);
}

TEST_F(ObsTraceTest, WorkerScopesNestUnderTheSubmittingScope) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  const std::size_t previous_threads = exec::thread_count();
  exec::set_thread_count(4);
  {
    obs::Scope outer("outer");
    exec::parallel_for(
        16,
        [](std::size_t) {
          REMGEN_SCOPE("item");
          // Long enough that pool workers, not only the caller, run chunks.
          const std::uint64_t until = obs::wall_clock_us() + 1000;
          while (obs::wall_clock_us() < until) {
          }
        },
        /*chunk=*/1);
  }
  exec::set_thread_count(previous_threads);

  const std::vector<obs::SpanRecord> records = obs::trace().snapshot();
  const obs::SpanRecord* outer = find_record(records, "outer");
  ASSERT_NE(outer, nullptr);
  std::size_t items = 0;
  for (const obs::SpanRecord& r : records) {
    if (r.name != "item") continue;
    ++items;
    EXPECT_EQ(r.parent_id, outer->id) << "item on tid " << r.tid;
    EXPECT_EQ(r.depth, outer->depth + 1);
  }
  EXPECT_EQ(items, 16u);
}

TEST_F(ObsTraceTest, SpansCaptureSimAndWallTime) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_sim_time(10.0);
  {
    obs::Scope span("mission");
    obs::set_sim_time(14.5);  // the co-simulation loop advances the clock
  }
  const std::vector<obs::SpanRecord> records = obs::trace().snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].sim_start_s, 10.0);
  EXPECT_DOUBLE_EQ(records[0].sim_end_s, 14.5);
  // Wall time is on the process-wide steady epoch, duration >= 0.
  EXPECT_GE(records[0].dur_us, 0u);
}

TEST_F(ObsTraceTest, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  {
    obs::Scope span("invisible");
    span.arg("key", "value");
    obs::instant("also-invisible");
  }
  EXPECT_EQ(obs::trace().size(), 0u);
}

TEST_F(ObsTraceTest, CapacityBoundsTheBuffer) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::trace().set_capacity(2);
  for (int i = 0; i < 5; ++i) obs::instant("burst");
  EXPECT_EQ(obs::trace().size(), 2u);
  EXPECT_EQ(obs::trace().dropped(), 3u);
  obs::trace().set_capacity(1u << 18);
  obs::trace().clear();
}

TEST_F(ObsTraceTest, ChromeTraceExportRoundTrips) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  obs::set_sim_time(3.0);
  {
    obs::Scope campaign("campaign");
    campaign.arg("uav_count", 2);
    {
      obs::Scope mission("campaign.uav_mission");
      mission.arg("uav", 0);
      obs::set_sim_time(7.0);
    }
    obs::instant("crtp.radio_off");
  }

  std::ostringstream out;
  const std::vector<obs::SpanRecord> records = obs::trace().snapshot();
  obs::write_chrome_trace(out, records);
  const obs::Json parsed = obs::Json::parse(out.str());

  ASSERT_TRUE(parsed.contains("traceEvents"));
  const obs::Json::Array& events = parsed.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);

  // Every event carries the Chrome trace_event required fields.
  for (const obs::Json& event : events) {
    EXPECT_TRUE(event.at("ph").is_string());
    EXPECT_TRUE(event.at("ts").is_number());
    EXPECT_TRUE(event.at("pid").is_number());
    EXPECT_TRUE(event.at("tid").is_number());
    EXPECT_TRUE(event.at("args").is_object());
  }

  const auto find_event = [&events](std::string_view name) -> const obs::Json& {
    const auto it =
        std::find_if(events.begin(), events.end(), [name](const obs::Json& event) {
          return event.at("name").as_string() == name;
        });
    EXPECT_NE(it, events.end());
    return *it;
  };

  const obs::Json& mission = find_event("campaign.uav_mission");
  EXPECT_EQ(mission.at("ph").as_string(), "X");
  EXPECT_EQ(mission.at("args").at("uav").as_string(), "0");
  EXPECT_DOUBLE_EQ(mission.at("args").at("sim_start_s").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(mission.at("args").at("sim_end_s").as_double(), 7.0);

  const obs::Json& campaign = find_event("campaign");
  const obs::Json& radio_off = find_event("crtp.radio_off");
  EXPECT_EQ(radio_off.at("ph").as_string(), "i");
  EXPECT_EQ(radio_off.at("cat").as_string(), "crtp");
  // The mission nests under the campaign span in the exported tree.
  EXPECT_DOUBLE_EQ(mission.at("args").at("parent_id").as_double(),
                   campaign.at("args").at("span_id").as_double());
}

TEST_F(ObsTraceTest, SpanArgsFormatValues) {
  if (!obs::compiled()) GTEST_SKIP() << "telemetry compiled out";
  {
    obs::Scope span("typed-args");
    span.arg("count", std::size_t{42});
    span.arg("ratio", 2.5);
    span.arg("label", "uav-a");
  }
  const std::vector<obs::SpanRecord> records = obs::trace().snapshot();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].args.size(), 3u);
  EXPECT_EQ(records[0].args[0].second, "42");
  EXPECT_EQ(records[0].args[1].second, "2.500000");
  EXPECT_EQ(records[0].args[2].second, "uav-a");
}

}  // namespace
