#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/rem_builder.hpp"
#include "exec/config.hpp"
#include "ml/model_zoo.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace remgen::serve {
namespace {

constexpr const char* kMacA = "02:00:00:00:00:0a";
constexpr const char* kMacB = "02:00:00:00:00:0b";

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

data::Sample make_sample(double x, double y, double z, const char* mac, double rss,
                         int channel) {
  data::Sample s;
  s.position = {x, y, z};
  s.mac = *radio::MacAddress::parse(mac);
  s.channel = channel;
  s.rss_dbm = rss;
  return s;
}

data::Dataset synthetic_dataset(std::size_t per_mac = 40) {
  util::Rng rng(21);
  data::Dataset ds;
  for (std::size_t i = 0; i < per_mac; ++i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 3.0);
    const double z = rng.uniform(0.0, 2.0);
    ds.add(make_sample(x, y, z, kMacA, -55.0 - 4.0 * x + rng.gaussian(0, 1.0), 6));
    ds.add(make_sample(x, y, z, kMacB, -75.0 - 2.0 * y + rng.gaussian(0, 1.0), 11));
  }
  return ds;
}

store::Snapshot make_snapshot(bool with_rem = true) {
  const data::Dataset ds = synthetic_dataset();
  store::Snapshot snapshot;
  snapshot.dataset = ds;
  auto model = ml::make_model(ml::ModelKind::PerMacKnn);
  if (with_rem) {
    core::RemBuilderConfig config;
    config.voxel_m = 0.5;
    config.min_samples_per_mac = 1;
    snapshot.rem.emplace(
        core::build_rem(ds, *model, geom::Aabb({0, 0, 0}, {4.0, 3.0, 2.0}), config));
  } else {
    model->fit(ds.samples());
  }
  snapshot.model = std::move(model);
  return snapshot;
}

// --- Request parsing ----------------------------------------------------

TEST(ServeRequest, ParsesPointQuery) {
  const Request r =
      parse_request(R"({"id":7,"type":"point","x":1.5,"y":2.0,"z":0.5,"mac":"02:00:00:00:00:0a"})");
  EXPECT_EQ(r.id, 7);
  EXPECT_EQ(r.type, RequestType::Point);
  ASSERT_TRUE(r.mac.has_value());
  EXPECT_EQ(r.mac->to_string(), kMacA);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_DOUBLE_EQ(r.points[0].x, 1.5);
}

TEST(ServeRequest, DefaultsToPointType) {
  const Request r = parse_request(R"({"id":1,"x":0.0,"y":0.0,"z":0.0})");
  EXPECT_EQ(r.type, RequestType::Point);
  EXPECT_FALSE(r.mac.has_value());
}

TEST(ServeRequest, ParsesBatchQuery) {
  const Request r = parse_request(
      R"({"id":2,"type":"batch","mac":"02:00:00:00:00:0b","points":[[0,0,0],[1,2,0.5]]})");
  EXPECT_EQ(r.type, RequestType::Batch);
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_DOUBLE_EQ(r.points[1].y, 2.0);
}

TEST(ServeRequest, ParsesVolumeQuery) {
  const Request r =
      parse_request(R"({"id":3,"type":"volume","z_lo":0.5,"z_hi":1.5,"threshold_dbm":-70})");
  EXPECT_EQ(r.type, RequestType::Volume);
  EXPECT_DOUBLE_EQ(r.z_lo, 0.5);
  EXPECT_DOUBLE_EQ(r.z_hi, 1.5);
  EXPECT_DOUBLE_EQ(r.threshold_dbm, -70.0);
}

TEST(ServeRequest, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_request("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_request(R"([1,2,3])"), std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"type":"point","x":0,"y":0,"z":0})"),
               std::runtime_error);  // no id
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"wat"})"), std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"point","x":0,"y":0})"),
               std::runtime_error);  // missing z
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"point","x":0,"y":0,"z":0,"mac":"zz"})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"batch","mac":"02:00:00:00:00:0a"})"),
               std::runtime_error);  // no points
  EXPECT_THROW(
      (void)parse_request(R"({"id":1,"type":"batch","mac":"02:00:00:00:00:0a","points":[[1,2]]})"),
      std::runtime_error);  // 2-component point
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"volume","z_lo":2.0,"z_hi":1.0})"),
               std::runtime_error);  // inverted slab
}

TEST(ServeRequest, RejectsNonFiniteCoordinates) {
  // JSON has no NaN/inf literals, but overflowing literals produce inf —
  // the parser must reject them, mirroring the CLI's --at validation.
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"point","x":1e999,"y":0,"z":0})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_request(R"({"id":1,"type":"batch","mac":"02:00:00:00:00:0a","points":[[1e999,0,0]]})"),
      std::runtime_error);
}

TEST(ServeRequest, ResponseJsonlMergesIdAndBody) {
  Response response;
  response.id = 12;
  obs::Json::Object body;
  body["rss_dbm"] = obs::Json(-61.5);
  response.body = obs::Json(std::move(body));
  EXPECT_EQ(response.to_jsonl(), R"({"id":12,"ok":true,"rss_dbm":-61.5})");

  Response failure;
  failure.id = 13;
  failure.ok = false;
  failure.error = "boom";
  EXPECT_EQ(failure.to_jsonl(), R"({"error":"boom","id":13,"ok":false})");
}

// --- Engine semantics ---------------------------------------------------

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = exec::thread_count(); }
  void TearDown() override { exec::set_thread_count(previous_); }
  std::size_t previous_ = 1;
};

TEST_F(ServeEngineTest, PointQueryBitIdenticalToInProcessPredict) {
  store::Snapshot reference = make_snapshot();
  // Build the engine from an independent save->load cycle, as remgen-serve
  // would in a fresh process.
  std::stringstream io;
  store::save_snapshot(io, reference);
  const QueryEngine engine(store::load_snapshot(io), 1 << 20);

  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const geom::Vec3 p{rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)};
    Request request;
    request.id = i;
    request.mac = *radio::MacAddress::parse(i % 2 == 0 ? kMacA : kMacB);
    request.points.push_back(p);
    const Response response = engine.execute(request);
    ASSERT_TRUE(response.ok) << response.error;

    data::Sample q;
    q.mac = *request.mac;
    q.position = p;
    const double expected = reference.model->predict(q);
    EXPECT_EQ(bits(response.body.at("rss_dbm").as_double()), bits(expected));
  }
}

TEST_F(ServeEngineTest, BestApRanksStrongestFirst) {
  const QueryEngine engine(make_snapshot(), 1 << 20);
  Request request;
  request.id = 1;
  request.top = 5;
  request.points.push_back({0.25, 0.25, 1.0});  // Near x=0: MAC A is strongest.
  const Response response = engine.execute(request);
  ASSERT_TRUE(response.ok) << response.error;
  const auto& best = response.body.at("best").as_array();
  ASSERT_EQ(best.size(), 2u);  // Two MACs known, top capped by availability.
  EXPECT_EQ(best[0].at("mac").as_string(), kMacA);
  EXPECT_GE(best[0].at("rss_dbm").as_double(), best[1].at("rss_dbm").as_double());
}

TEST_F(ServeEngineTest, UnknownMacIsARequestError) {
  const QueryEngine engine(make_snapshot(), 1 << 20);
  Request request;
  request.id = 9;
  request.mac = *radio::MacAddress::parse("02:99:99:99:99:99");
  request.points.push_back({1.0, 1.0, 1.0});
  const Response response = engine.execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown mac"), std::string::npos);
}

TEST_F(ServeEngineTest, BatchMatchesPointQueries) {
  const QueryEngine engine(make_snapshot(), 1 << 20);
  Request batch;
  batch.id = 1;
  batch.type = RequestType::Batch;
  batch.mac = *radio::MacAddress::parse(kMacA);
  batch.points = {{0.5, 0.5, 0.5}, {1.5, 1.0, 1.0}, {3.5, 2.5, 1.5}};
  const Response response = engine.execute(batch);
  ASSERT_TRUE(response.ok) << response.error;
  const auto& values = response.body.at("rss_dbm").as_array();
  ASSERT_EQ(values.size(), batch.points.size());
  for (std::size_t i = 0; i < batch.points.size(); ++i) {
    Request point;
    point.id = 2;
    point.mac = batch.mac;
    point.points.push_back(batch.points[i]);
    const Response single = engine.execute(point);
    ASSERT_TRUE(single.ok);
    EXPECT_EQ(bits(values[i].as_double()), bits(single.body.at("rss_dbm").as_double()));
  }
}

TEST_F(ServeEngineTest, VolumeQueryCountsCoverage) {
  const QueryEngine engine(make_snapshot(), 1 << 20);
  Request request;
  request.id = 4;
  request.type = RequestType::Volume;
  request.z_lo = 0.0;
  request.z_hi = 2.0;
  request.threshold_dbm = -200.0;  // Everything passes.
  const Response response = engine.execute(request);
  ASSERT_TRUE(response.ok) << response.error;
  const auto& g = engine.snapshot().rem->geometry();
  EXPECT_EQ(response.body.at("voxels").as_double(),
            static_cast<double>(g.voxel_count()));
  EXPECT_DOUBLE_EQ(response.body.at("coverage").as_double(), 1.0);
  EXPECT_EQ(response.body.at("dark").as_double(), 0.0);
}

TEST_F(ServeEngineTest, VolumeWithoutRemFails) {
  const QueryEngine engine(make_snapshot(/*with_rem=*/false), 1 << 20);
  Request request;
  request.id = 4;
  request.type = RequestType::Volume;
  request.z_lo = 0.0;
  request.z_hi = 2.0;
  const Response response = engine.execute(request);
  EXPECT_FALSE(response.ok);
}

TEST_F(ServeEngineTest, CacheHitsOnRepeatedQueriesWithIdenticalResults) {
  const QueryEngine engine(make_snapshot(), 1 << 20);
  Request request;
  request.id = 1;
  request.mac = *radio::MacAddress::parse(kMacA);
  request.points.push_back({1.25, 0.75, 1.0});
  const Response first = engine.execute(request);
  const std::uint64_t misses_after_first = engine.cache().misses();
  const Response second = engine.execute(request);
  EXPECT_EQ(engine.cache().misses(), misses_after_first);
  EXPECT_GE(engine.cache().hits(), 1u);
  EXPECT_EQ(first.to_jsonl(), second.to_jsonl());
}

TEST_F(ServeEngineTest, ZeroCacheBudgetDisablesCaching) {
  const QueryEngine engine(make_snapshot(), 0);
  Request request;
  request.id = 1;
  request.mac = *radio::MacAddress::parse(kMacA);
  request.points.push_back({1.25, 0.75, 1.0});
  const Response first = engine.execute(request);
  const Response second = engine.execute(request);
  EXPECT_EQ(engine.cache().hits(), 0u);
  EXPECT_EQ(engine.cache().size(), 0u);
  EXPECT_EQ(first.to_jsonl(), second.to_jsonl());
}

TEST(ServeCache, EvictsLeastRecentlyUsed) {
  // Tiny budget: capacity_entries = bytes / kBytesPerEntry, split over 16
  // shards. All keys share one MAC, so they hash into one shard.
  ResultCache cache(ResultCache::kBytesPerEntry * 16 * 2);  // 2 entries per shard
  EXPECT_EQ(cache.capacity_entries(), 32u);
  const radio::MacAddress mac = *radio::MacAddress::parse(kMacA);
  cache.put(mac, {1, 0, 0}, -10.0);
  cache.put(mac, {2, 0, 0}, -20.0);
  EXPECT_TRUE(cache.get(mac, {1, 0, 0}).has_value());  // 1 is now most recent.
  cache.put(mac, {3, 0, 0}, -30.0);                    // Evicts 2.
  EXPECT_FALSE(cache.get(mac, {2, 0, 0}).has_value());
  EXPECT_EQ(cache.get(mac, {1, 0, 0}).value(), -10.0);
  EXPECT_EQ(cache.get(mac, {3, 0, 0}).value(), -30.0);
}

// --- Replay determinism -------------------------------------------------

std::string request_stream() {
  // Shuffled ids, duplicates (cache hits), malformed lines, batch + volume
  // + best-AP + errors: everything the response ordering must survive.
  std::ostringstream out;
  util::Rng rng(123);
  for (int i = 60; i > 0; --i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 3.0);
    const double z = rng.uniform(0.0, 2.0);
    const char* mac = i % 2 == 0 ? kMacA : kMacB;
    switch (i % 5) {
      case 0:
        out << R"({"id":)" << i << R"(,"type":"point","x":)" << x << R"(,"y":)" << y
            << R"(,"z":)" << z << R"(,"mac":")" << mac << R"("})" << "\n";
        break;
      case 1:  // Best-AP.
        out << R"({"id":)" << i << R"(,"type":"point","x":)" << x << R"(,"y":)" << y
            << R"(,"z":)" << z << R"(,"top":2})" << "\n";
        break;
      case 2:
        out << R"({"id":)" << i << R"(,"type":"batch","mac":")" << mac
            << R"(","points":[[1,1,1],[)" << x << "," << y << "," << z << R"(]]})" << "\n";
        break;
      case 3:
        out << R"({"id":)" << i << R"(,"type":"volume","z_lo":0.0,"z_hi":)" << z << "}\n";
        break;
      case 4:
        out << "this line is garbage\n";
        break;
    }
    if (i % 7 == 0) {  // Duplicate id with an identical query: tie-break test.
      out << R"({"id":)" << i << R"(,"type":"point","x":1.0,"y":1.0,"z":1.0,"mac":")" << mac
          << R"("})" << "\n";
    }
  }
  return out.str();
}

TEST_F(ServeEngineTest, ReplayIsByteIdenticalAcrossThreadCounts) {
  const std::string requests = request_stream();

  const auto run = [&requests](std::size_t threads) {
    exec::set_thread_count(threads);
    // A fresh engine per run: the cache must not leak state between runs.
    std::stringstream io;
    store::save_snapshot(io, make_snapshot());
    const QueryEngine engine(store::load_snapshot(io), 1 << 20);
    std::istringstream in(requests);
    std::ostringstream out;
    const ReplayStats stats = engine.replay_jsonl(in, out);
    EXPECT_GT(stats.requests, 0u);
    EXPECT_GT(stats.errors, 0u);  // The garbage lines.
    return out.str();
  };

  const std::string sequential = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(sequential, parallel);

  // Responses come out ordered by id.
  std::istringstream lines(sequential);
  std::string line;
  std::int64_t last_id = std::numeric_limits<std::int64_t>::min();
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const obs::Json doc = obs::Json::parse(line);
    const auto id = static_cast<std::int64_t>(doc.at("id").as_double());
    EXPECT_GE(id, last_id);
    last_id = id;
    ++count;
  }
  EXPECT_GT(count, 60u);
}

TEST_F(ServeEngineTest, ReplayReportsStats) {
  exec::set_thread_count(2);
  const QueryEngine engine(make_snapshot(), 1 << 20);
  std::istringstream in(
      R"({"id":2,"type":"point","x":1,"y":1,"z":1,"mac":"02:00:00:00:00:0a"}
{"id":1,"type":"point","x":1,"y":1,"z":1,"mac":"02:00:00:00:00:0a"}
garbage
)");
  std::ostringstream out;
  const ReplayStats stats = engine.replay_jsonl(in, out);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_GE(stats.qps, 0.0);
  EXPECT_GE(stats.latency_us.p99, stats.latency_us.p50);
  EXPECT_EQ(stats.cache_hits, 1u);  // Identical point for ids 1 and 2.
  // Malformed line sorts first (id -1), then ids ascending.
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find(R"("id":-1)"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find(R"("id":1)"), std::string::npos);
}

TEST_F(ServeEngineTest, ReplayStatsArePerRunNotCumulative) {
  // Regression: replay_jsonl used to report the engine's lifetime cache
  // counters, so a second replay on a warm engine claimed the first run's
  // hits and misses as its own.
  exec::set_thread_count(2);
  const QueryEngine engine(make_snapshot(), 1 << 20);
  std::istringstream first_in(
      R"({"id":1,"type":"point","x":1,"y":1,"z":1,"mac":"02:00:00:00:00:0a"}
{"id":2,"type":"point","x":1,"y":1,"z":1,"mac":"02:00:00:00:00:0a"}
)");
  std::ostringstream first_out;
  const ReplayStats first = engine.replay_jsonl(first_in, first_out);
  EXPECT_EQ(first.cache_hits, 1u);
  EXPECT_EQ(first.cache_misses, 1u);

  // Same two lines again: both hit the now-warm cache, and neither the first
  // run's miss nor its hit may leak into this run's report.
  std::istringstream second_in(
      R"({"id":1,"type":"point","x":1,"y":1,"z":1,"mac":"02:00:00:00:00:0a"}
{"id":2,"type":"point","x":1,"y":1,"z":1,"mac":"02:00:00:00:00:0a"}
)");
  std::ostringstream second_out;
  const ReplayStats second = engine.replay_jsonl(second_in, second_out);
  EXPECT_EQ(second.cache_hits, 2u);
  EXPECT_EQ(second.cache_misses, 0u);
}

// --- Exact integer ids --------------------------------------------------

TEST(ServeRequest, LargeIdsRoundTripExactly) {
  // Regression: ids used to pass through double, so 2^53 + 3 came back as
  // 2^53 + 4 and responses no longer matched their requests.
  const std::int64_t big = (std::int64_t{1} << 53) + 3;
  const Request request =
      parse_request(R"({"id":9007199254740995,"type":"point","x":1,"y":1,"z":1,"top":1})");
  EXPECT_EQ(request.id, big);

  Response response;
  response.id = big;
  EXPECT_NE(response.to_jsonl().find("\"id\":9007199254740995"), std::string::npos);
}

TEST(ServeRequest, RejectsNonIntegerOrNegativeIds) {
  EXPECT_THROW((void)parse_request(R"({"id":1.5,"type":"point","x":0,"y":0,"z":0})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"id":-3,"type":"point","x":0,"y":0,"z":0})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"id":1e300,"type":"point","x":0,"y":0,"z":0})"),
               std::runtime_error);  // Out of int64 range.
  EXPECT_THROW((void)parse_request(R"({"id":"7","type":"point","x":0,"y":0,"z":0})"),
               std::runtime_error);
}

TEST(ServeRequest, RejectsFractionalTop) {
  // Regression: "top":2.9 used to be silently truncated to 2.
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"point","x":0,"y":0,"z":0,"top":2.9})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"id":1,"type":"point","x":0,"y":0,"z":0,"top":0})"),
               std::runtime_error);
}

TEST(ServeRequest, SalvagesIdsOnlyFromValidIntegerIds) {
  EXPECT_EQ(salvage_request_id(R"({"id":41,"type":"wat"})"), 41);
  EXPECT_EQ(salvage_request_id(R"({"id":9007199254740995,"type":"wat"})"),
            (std::int64_t{1} << 53) + 3);
  EXPECT_EQ(salvage_request_id("not json"), -1);
  EXPECT_EQ(salvage_request_id(R"({"id":1.5})"), -1);
  EXPECT_EQ(salvage_request_id(R"({"id":-7})"), -1);
  EXPECT_EQ(salvage_request_id(R"({"type":"point"})"), -1);
}

// --- Coalesced execution ------------------------------------------------

TEST_F(ServeEngineTest, ExecuteCoalescedByteIdenticalToExecute) {
  std::stringstream io;
  store::save_snapshot(io, make_snapshot());

  std::vector<Request> requests;
  util::Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    Request request;
    request.id = i;
    const geom::Vec3 p{rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)};
    switch (i % 5) {
      case 0:  // Same-MAC point queries: the coalescing target.
      case 1:
        request.mac = *radio::MacAddress::parse(i % 2 == 0 ? kMacA : kMacB);
        request.points.push_back(p);
        break;
      case 2:  // Best-AP.
        request.top = 2;
        request.points.push_back(p);
        break;
      case 3:
        request.type = RequestType::Batch;
        request.mac = *radio::MacAddress::parse(kMacA);
        request.points = {p, {1, 1, 1}};
        break;
      case 4:  // Unknown MAC: per-request error path inside a group-less unit.
        request.mac = *radio::MacAddress::parse("02:99:99:99:99:99");
        request.points.push_back(p);
        break;
    }
    requests.push_back(std::move(request));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exec::set_thread_count(threads);
    const QueryEngine engine(store::load_snapshot(io), 1 << 20);
    io.clear();
    io.seekg(0);
    const QueryEngine reference(store::load_snapshot(io), 1 << 20);
    io.clear();
    io.seekg(0);
    const std::vector<Response> coalesced = engine.execute_coalesced(requests);
    ASSERT_EQ(coalesced.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(coalesced[i].to_jsonl(), reference.execute(requests[i]).to_jsonl())
          << "request " << i << " at " << threads << " thread(s)";
    }
  }
}

// A MAC whose 40 samples read 1e308 dBm: each row is finite and passes the
// CSV and snapshot row rules, but their mean overflows to infinity.
store::Snapshot overflowing_snapshot() {
  store::Snapshot snapshot;
  snapshot.dataset = synthetic_dataset();
  for (int i = 0; i < 40; ++i) {
    snapshot.dataset.add(make_sample(0.1 * i, 1.0, 1.0, "02:00:00:00:00:0c", 1e308, 1));
  }
  snapshot.model = ml::make_model(ml::ModelKind::BaselineMeanPerMac);
  snapshot.model->fit(snapshot.dataset.samples());
  return snapshot;
}

TEST_F(ServeEngineTest, NonFiniteReplyIsARequestError) {
  const QueryEngine engine(overflowing_snapshot(), 1 << 20);
  Request bad;
  bad.id = 1;
  bad.mac = *radio::MacAddress::parse("02:00:00:00:00:0c");
  bad.points.push_back({1.0, 1.0, 1.0});
  Request best_ap = bad;  // Ranks every MAC, the overflowing one included.
  best_ap.id = 2;
  best_ap.mac.reset();
  Request good = bad;
  good.id = 3;
  good.mac = *radio::MacAddress::parse(kMacA);

  for (const Request& request : {bad, best_ap}) {
    const Response response = engine.execute(request);
    EXPECT_FALSE(response.ok) << response.to_jsonl();
    EXPECT_NE(response.error.find("non-finite"), std::string::npos) << response.error;
  }
  // The coalesced point path builds its replies outside execute().
  const std::vector<Response> coalesced = engine.execute_coalesced({bad, good});
  ASSERT_EQ(coalesced.size(), 2u);
  EXPECT_EQ(coalesced[0].to_jsonl(), engine.execute(bad).to_jsonl());
  EXPECT_TRUE(coalesced[1].ok);
  EXPECT_EQ(coalesced[1].to_jsonl(), engine.execute(good).to_jsonl());
}

// --- Served answers are raster cells ------------------------------------

class ServedPointEqualsRasterCell : public ::testing::TestWithParam<ml::ModelKind> {};

/// Rows where each MAC's samples span two channels, and the MAC's latest
/// channel is not its most frequent one.
data::Dataset two_channel_dataset() {
  util::Rng rng(33);
  data::Dataset ds;
  constexpr std::size_t kPerMac = 40;
  for (std::size_t i = 0; i < kPerMac; ++i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 3.0);
    const double z = rng.uniform(0.0, 2.0);
    const bool minority = i % 4 == 3;  // Includes the last row, i = 39.
    ds.add(make_sample(x, y, z, kMacA, -55.0 - 4.0 * x + rng.gaussian(0, 1.0),
                       minority ? 11 : 6));
    ds.add(make_sample(x, y, z, kMacB, -75.0 - 2.0 * y + rng.gaussian(0, 1.0),
                       minority ? 1 : 11));
  }
  return ds;
}

TEST_P(ServedPointEqualsRasterCell, AtEveryVoxelCentre) {
  core::RemBuilderConfig config;
  config.voxel_m = 0.5;
  std::optional<store::Snapshot> built = store::build_snapshot(
      two_channel_dataset(), GetParam(), geom::Aabb({0, 0, 0}, {4.0, 3.0, 2.0}), config);
  ASSERT_TRUE(built.has_value());
  std::stringstream io;
  store::save_snapshot(io, *built);
  const QueryEngine engine(store::load_snapshot(io), 1 << 20);
  const core::RadioEnvironmentMap& rem = *engine.snapshot().rem;
  const geom::GridGeometry& g = rem.geometry();

  std::vector<Request> requests;
  std::vector<double> cells;
  for (const radio::MacAddress& mac : rem.macs()) {
    for (std::size_t iz = 0; iz < g.nz(); ++iz) {
      for (std::size_t iy = 0; iy < g.ny(); ++iy) {
        for (std::size_t ix = 0; ix < g.nx(); ++ix) {
          Request request;
          request.id = static_cast<std::int64_t>(requests.size());
          request.mac = mac;
          request.points.push_back(g.voxel_center({ix, iy, iz}));
          requests.push_back(request);
          cells.push_back(rem.cell(mac, {ix, iy, iz}).rss_dbm);
        }
      }
    }
  }
  const std::vector<Response> coalesced = engine.execute_coalesced(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response response = engine.execute(requests[i]);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(bits(response.body.at("rss_dbm").as_double()), bits(cells[i])) << "request " << i;
    EXPECT_EQ(coalesced[i].to_jsonl(), response.to_jsonl());
  }
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, ServedPointEqualsRasterCell,
                         ::testing::ValuesIn(ml::all_model_kinds(true)),
                         [](const auto& info) {
                           std::string name = ml::model_kind_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace remgen::serve
