// In-process tests for the net::Server event loop: pipelined in-order
// delivery, admission control, the request-line bound, named maps, admin
// stats, hot reload with zero dropped in-flight requests, and graceful drain.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rem_builder.hpp"
#include "exec/config.hpp"
#include "ingest/pipeline.hpp"
#include "ml/model_zoo.hpp"
#include "net/server.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace remgen::net {
namespace {

constexpr const char* kMacA = "02:00:00:00:00:0a";
constexpr const char* kMacB = "02:00:00:00:00:0b";

data::Dataset synthetic_dataset(std::uint64_t seed) {
  util::Rng rng(seed);
  data::Dataset ds;
  for (std::size_t i = 0; i < 40; ++i) {
    data::Sample s;
    s.position = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)};
    s.mac = *radio::MacAddress::parse(kMacA);
    s.channel = 6;
    s.rss_dbm = -55.0 - 4.0 * s.position.x + rng.gaussian(0, 1.0);
    ds.add(s);
    s.mac = *radio::MacAddress::parse(kMacB);
    s.channel = 11;
    s.rss_dbm = -75.0 - 2.0 * s.position.y + rng.gaussian(0, 1.0);
    ds.add(s);
  }
  return ds;
}

store::Snapshot make_snapshot(std::uint64_t seed = 21) {
  const data::Dataset ds = synthetic_dataset(seed);
  store::Snapshot snapshot;
  snapshot.dataset = ds;
  auto model = ml::make_model(ml::ModelKind::PerMacKnn);
  core::RemBuilderConfig config;
  config.voxel_m = 0.5;
  config.min_samples_per_mac = 1;
  snapshot.rem.emplace(
      core::build_rem(ds, *model, geom::Aabb({0, 0, 0}, {4.0, 3.0, 2.0}), config));
  snapshot.model = std::move(model);
  return snapshot;
}

std::shared_ptr<const serve::QueryEngine> make_engine(std::uint64_t seed = 21) {
  return std::make_shared<const serve::QueryEngine>(make_snapshot(seed), 1 << 20);
}

/// Blocking loopback client speaking the newline-delimited protocol.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  void send_all(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until `count` lines arrived, EOF, or the deadline (seconds).
  std::vector<std::string> read_lines(std::size_t count, int deadline_s = 20) {
    std::vector<std::string> lines;
    const auto harvest = [this, &lines, count] {
      std::size_t start = 0;
      while (lines.size() < count) {  // Surplus stays buffered for later calls.
        const std::size_t nl = pending_.find('\n', start);
        if (nl == std::string::npos) break;
        lines.push_back(pending_.substr(start, nl - start));
        start = nl + 1;
      }
      pending_.erase(0, start);
    };
    // Lines a previous call buffered come first: a fast server may deliver
    // many responses in one recv, and EOF after them must not hide them.
    harvest();
    const auto deadline_ms = deadline_s * 1000;
    int waited_ms = 0;
    while (lines.size() < count && waited_ms < deadline_ms) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready == 0) {
        waited_ms += 100;
        continue;
      }
      char buffer[16384];
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) break;  // EOF or error: return what we have.
      pending_.append(buffer, static_cast<std::size_t>(n));
      harvest();
    }
    return lines;
  }

  /// Everything received but not yet returned as lines (raw bytes; used by
  /// the HTTP tests where the response is not newline-framed).
  std::string take_pending() { return std::exchange(pending_, {}); }

  /// True once recv reports EOF (server closed its side).
  bool wait_eof(int deadline_s = 20) {
    int waited_ms = 0;
    while (waited_ms < deadline_s * 1000) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) > 0) {
        char buffer[4096];
        const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
        if (n == 0) return true;
        if (n < 0) return false;
        pending_.append(buffer, static_cast<std::size_t>(n));
      } else {
        waited_ms += 100;
      }
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string pending_;
};

/// Runs a Server on an ephemeral loopback port in a background thread and
/// guarantees shutdown + join on scope exit.
class ServerHarness {
 public:
  explicit ServerHarness(ServerConfig config = {}) : server_(std::move(config)) {}
  ~ServerHarness() { stop(); }

  Server& server() { return server_; }

  std::uint16_t start() {
    const std::uint16_t port = server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
    return port;
  }

  void stop() {
    if (thread_.joinable()) {
      server_.request_shutdown();
      thread_.join();
    }
  }

 private:
  Server server_;
  std::thread thread_;
};

std::string point_line(std::int64_t id, double x, const char* map = nullptr) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"type\":\"point\",\"top\":2,\"x\":" +
                     std::to_string(x) + ",\"y\":1.0,\"z\":1.0";
  if (map != nullptr) line += std::string(",\"map\":\"") + map + "\"";
  return line + "}\n";
}

std::int64_t line_id(const std::string& line) {
  return obs::Json::parse(line).at("id").as_int64();
}

bool line_ok(const std::string& line) { return obs::Json::parse(line).at("ok").as_bool(); }

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = exec::thread_count();
    exec::set_thread_count(2);
  }
  void TearDown() override { exec::set_thread_count(previous_threads_); }
  std::size_t previous_threads_ = 1;
};

TEST_F(NetServerTest, PipelinedResponsesArriveInRequestOrderByteIdentical) {
  const std::shared_ptr<const serve::QueryEngine> engine = make_engine();
  ServerHarness harness;
  harness.server().add_engine("default", engine);
  const std::uint16_t port = harness.start();

  // Pipelined burst with a garbage line in the middle: every line gets a
  // response, in exactly the order sent.
  std::vector<std::string> requests;
  std::string burst;
  for (int i = 0; i < 25; ++i) {
    requests.push_back(point_line(100 - i, 0.25 * i));
    burst += requests.back();
    if (i == 10) burst += "garbage line\n";
  }
  Client client(port);
  ASSERT_TRUE(client.connected());
  client.send_all(burst);
  const std::vector<std::string> lines = client.read_lines(26);
  ASSERT_EQ(lines.size(), 26u);

  std::size_t request_index = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == 11) {  // The garbage line's error response, slotted in order.
      EXPECT_FALSE(line_ok(lines[i]));
      EXPECT_EQ(line_id(lines[i]), -1);
      continue;
    }
    const serve::Request request = serve::parse_request(requests[request_index]);
    EXPECT_EQ(lines[i], engine->execute(request).to_jsonl()) << "line " << i;
    ++request_index;
  }
}

TEST_F(NetServerTest, NamedMapsRouteAndUnknownMapIsAnError) {
  ServerHarness harness;
  harness.server().add_engine("default", make_engine(21));
  harness.server().add_engine("floor2", make_engine(77));
  const std::uint16_t port = harness.start();

  Client client(port);
  ASSERT_TRUE(client.connected());
  client.send_all(point_line(1, 1.0) + point_line(2, 1.0, "floor2") +
                  point_line(3, 1.0, "nowhere"));
  const std::vector<std::string> lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(line_ok(lines[0]));
  EXPECT_TRUE(line_ok(lines[1]));
  // Different seeds -> different snapshots -> different predictions.
  EXPECT_NE(lines[0].substr(lines[0].find("best")), lines[1].substr(lines[1].find("best")));
  EXPECT_FALSE(line_ok(lines[2]));
  EXPECT_NE(lines[2].find("unknown map 'nowhere'"), std::string::npos);
}

TEST_F(NetServerTest, StatsAdminReportsCountersAndMaps) {
  ServerHarness harness;
  harness.server().add_engine("default", make_engine());
  const std::uint16_t port = harness.start();

  Client client(port);
  ASSERT_TRUE(client.connected());
  client.send_all(point_line(1, 1.0) + "{\"id\":2,\"type\":\"stats\"}\n");
  const std::vector<std::string> lines = client.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  const obs::Json stats = obs::Json::parse(lines[1]);
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("id").as_int64(), 2);
  EXPECT_GE(stats.at("requests").as_int64(), 1);
  EXPECT_EQ(stats.at("maps").as_array().size(), 1u);
  EXPECT_EQ(stats.at("maps").as_array()[0].as_string(), "default");
  EXPECT_EQ(stats.at("reload_swaps").as_int64(), 0);
}

TEST_F(NetServerTest, StatsAdminReportsEnrichedSchema) {
  ServerConfig config;
  config.max_inflight = 123;
  config.max_batch = 17;
  config.cache_bytes = 8 << 20;
  ServerHarness harness(std::move(config));
  harness.server().add_engine("default", make_engine());
  const std::uint16_t port = harness.start();

  Client client(port);
  ASSERT_TRUE(client.connected());
  // Stats snapshots are taken at admission: wait for the point's response so
  // its execution-side counters (cache, per-map responses) are in.
  client.send_all(point_line(1, 1.0));
  ASSERT_EQ(client.read_lines(1).size(), 1u);
  client.send_all("{\"id\":2,\"type\":\"stats\"}\n");
  const std::vector<std::string> lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  const obs::Json stats = obs::Json::parse(lines[0]);
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_GE(stats.at("uptime_seconds").as_double(), 0.0);
  EXPECT_GE(stats.at("cache_hits").as_int64() + stats.at("cache_misses").as_int64(), 1);
  const obs::Json& limits = stats.at("limits");
  EXPECT_EQ(limits.at("max_inflight").as_int64(), 123);
  EXPECT_EQ(limits.at("max_batch").as_int64(), 17);
  EXPECT_EQ(limits.at("cache_mb").as_int64(), 8);
  const obs::Json& window = stats.at("window");
  EXPECT_DOUBLE_EQ(window.at("span_seconds").as_double(), 60.0);  // 12 x 5 s.
  EXPECT_GE(window.at("qps").as_double(), 0.0);
  EXPECT_TRUE(window.at("latency_us").contains("p50"));
  EXPECT_TRUE(window.at("latency_us").contains("p99.9"));
  const obs::Json& loop = stats.at("loop");
  EXPECT_TRUE(loop.contains("stalled"));
  EXPECT_GE(loop.at("lag_p99_us").as_double(), 0.0);
  const obs::Json& per_map = stats.at("map_stats").at("default");
  EXPECT_GE(per_map.at("requests").as_int64(), 1);
  EXPECT_EQ(per_map.at("errors").as_int64(), 0);
}

namespace prom {

/// First sample value for `name` in a text exposition, or -1 when absent.
double sample_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stod(text.substr(pos + name.size() + 1));
    }
    pos += name.size();
  }
  return -1.0;
}

/// The sorted set of series names (# TYPE lines) in a text exposition.
std::vector<std::string> series_names(const std::string& text) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
    const std::size_t start = pos + 7;
    const std::size_t end = text.find(' ', start);
    names.push_back(text.substr(start, end - start));
    pos = end;
  }
  return names;
}

}  // namespace prom

TEST_F(NetServerTest, MetricsAdminScrapesMidPipelineWithoutBlocking) {
  ServerHarness harness;
  harness.server().add_engine("default", make_engine());
  const std::uint16_t port = harness.start();

  // Pipelined burst with the scrape in the middle: the scrape's reply slots
  // into per-connection order like any other response — it never jumps the
  // queue and never waits on engine work beyond its queue position.
  std::string burst;
  for (int i = 1; i <= 8; ++i) burst += point_line(i, 0.25 * i);
  burst += "{\"id\":99,\"type\":\"metrics\"}\n";
  for (int i = 9; i <= 16; ++i) burst += point_line(i, 0.25 * i);
  Client client(port);
  ASSERT_TRUE(client.connected());
  client.send_all(burst);
  const std::vector<std::string> lines = client.read_lines(17);
  ASSERT_EQ(lines.size(), 17u);
  ASSERT_EQ(line_id(lines[8]), 99);  // In order: after the first 8 points.

  const obs::Json scrape = obs::Json::parse(lines[8]);
  EXPECT_TRUE(scrape.at("ok").as_bool());
  EXPECT_EQ(scrape.at("content_type").as_string(), "text/plain; version=0.0.4");
  const std::string text = scrape.at("prometheus").as_string();
  // Windowed tail gauges and per-map series are present mid-load.
  EXPECT_GE(prom::sample_value(text, "remgen_net_window_latency_p99_us"), 0.0);
  EXPECT_GE(prom::sample_value(text, "remgen_net_window_qps"), 0.0);
  EXPECT_GE(prom::sample_value(text, "remgen_net_map_default_requests"), 1.0);
  EXPECT_DOUBLE_EQ(prom::sample_value(text, "remgen_net_limit_max_batch"), 512.0);

  // Second scrape after more traffic: the series set is stable and the
  // monotonic values never step backwards.
  client.send_all(point_line(17, 3.0) + "{\"id\":100,\"type\":\"metrics\"}\n");
  const std::vector<std::string> more = client.read_lines(2);
  ASSERT_EQ(more.size(), 2u);
  const std::string text2 = obs::Json::parse(more[1]).at("prometheus").as_string();
  EXPECT_EQ(prom::series_names(text), prom::series_names(text2));
  EXPECT_GT(prom::sample_value(text2, "remgen_net_map_default_requests"),
            prom::sample_value(text, "remgen_net_map_default_requests"));
  EXPECT_GE(prom::sample_value(text2, "remgen_net_map_default_responses"),
            prom::sample_value(text, "remgen_net_map_default_responses"));
  EXPECT_EQ(harness.server().stats().metrics_scrapes, 2u);
}

TEST_F(NetServerTest, HttpMetricsEndpointServesPrometheusText) {
  ServerConfig config;
  config.http_metrics_port = 0;  // Ephemeral.
  ServerHarness harness(std::move(config));
  harness.server().add_engine("default", make_engine());
  const std::uint16_t port = harness.start();
  const std::uint16_t http_port = harness.server().http_port();
  ASSERT_NE(http_port, 0);
  ASSERT_NE(http_port, port);

  Client data(port);
  ASSERT_TRUE(data.connected());
  data.send_all(point_line(1, 1.0));
  ASSERT_EQ(data.read_lines(1).size(), 1u);

  Client scraper(http_port);
  ASSERT_TRUE(scraper.connected());
  scraper.send_all("GET /metrics HTTP/1.0\r\n\r\n");
  std::string body;
  EXPECT_TRUE(scraper.wait_eof());  // Server closes after the response.
  // Everything buffered before EOF is the full HTTP response.
  const std::string response = scraper.take_pending();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response.substr(0, 64);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  EXPECT_GE(prom::sample_value(response.substr(split + 4),
                               "remgen_net_map_default_requests"),
            1.0);

  // Unknown paths get a 404, not a hang.
  Client missing(http_port);
  ASSERT_TRUE(missing.connected());
  missing.send_all("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_TRUE(missing.wait_eof());
  EXPECT_EQ(missing.take_pending().rfind("HTTP/1.0 404", 0), 0u);
  EXPECT_GE(harness.server().stats().metrics_scrapes, 1u);
}

TEST_F(NetServerTest, SlowLogRecordsLifecycleStampsAsJsonl) {
  const std::string path = ::testing::TempDir() + "net_slow.jsonl";
  std::remove(path.c_str());
  ServerConfig config;
  config.slow_log_path = path;
  config.slow_ms = 0.0;  // Log every request: deterministic under test.
  ServerHarness harness(std::move(config));
  harness.server().add_engine("default", make_engine());
  const std::uint16_t port = harness.start();

  Client client(port);
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 1; i <= 5; ++i) burst += point_line(i, 0.3 * i);
  client.send_all(burst);
  ASSERT_EQ(client.read_lines(5).size(), 5u);
  harness.stop();  // Drain closes the log; every entry is flushed.

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t entries = 0;
  while (std::getline(in, line)) {
    const obs::Json entry = obs::Json::parse(line);  // Throws on a torn line.
    EXPECT_EQ(entry.at("map").as_string(), "default");
    EXPECT_EQ(entry.at("type").as_string(), "point");
    EXPECT_GE(entry.at("queue_wait_us").as_double(), 0.0);
    EXPECT_GE(entry.at("exec_us").as_double(), 0.0);
    EXPECT_GE(entry.at("write_stall_us").as_double(), 0.0);
    EXPECT_GE(entry.at("total_us").as_double(),
              entry.at("exec_us").as_double());  // Total spans all stages.
    EXPECT_GE(entry.at("round_size").as_int64(), 1);
    EXPECT_GE(entry.at("id").as_int64(), 1);
    ++entries;
  }
  EXPECT_EQ(entries, 5u);
  EXPECT_EQ(harness.server().stats().slow_logged, 5u);
}

TEST_F(NetServerTest, OverloadedRequestsGetErrorsNotUnboundedQueueing) {
  ServerConfig config;
  config.max_inflight = 1;
  ServerHarness harness(std::move(config));
  harness.server().add_engine("default", make_engine());
  const std::uint16_t port = harness.start();

  // One write delivers many lines in a single read: the first is admitted,
  // the rest of that buffer must be rejected, and every line still gets a
  // response in order.
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 1; i <= kBurst; ++i) burst += point_line(i, 0.1 * i);
  Client client(port);
  ASSERT_TRUE(client.connected());
  client.send_all(burst);
  const std::vector<std::string> lines = client.read_lines(kBurst);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst));

  std::size_t overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(line_id(lines[static_cast<std::size_t>(i)]), i + 1);  // Order preserved.
    if (!line_ok(lines[static_cast<std::size_t>(i)])) {
      EXPECT_NE(lines[static_cast<std::size_t>(i)].find("overloaded"), std::string::npos);
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0u);
  EXPECT_LT(overloaded, static_cast<std::size_t>(kBurst));  // Some were served.
  EXPECT_EQ(harness.server().stats().overload_rejections, overloaded);
}

TEST_F(NetServerTest, OversizeRequestLineClosesOnlyItsOwnConnection) {
  const std::shared_ptr<const serve::QueryEngine> engine = make_engine();
  ServerConfig config;
  config.max_line_bytes = 4096;
  ServerHarness harness(std::move(config));
  harness.server().add_engine("default", engine);
  const std::uint16_t port = harness.start();

  Client oversize(port);
  Client bystander(port);
  ASSERT_TRUE(oversize.connected());
  ASSERT_TRUE(bystander.connected());
  oversize.send_all(std::string(8192, 'x'));  // 8 KiB, no newline.
  EXPECT_TRUE(oversize.wait_eof());

  const std::string request = point_line(7, 1.5);
  bystander.send_all(request);
  const std::vector<std::string> lines = bystander.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], engine->execute(serve::parse_request(request)).to_jsonl());
}

TEST_F(NetServerTest, NonFiniteReplyIsAnErrorAndServingContinues) {
  // One MAC's 40 samples read 1e308 dBm, so its mean-per-MAC prediction
  // overflows to infinity, which JSON cannot carry.
  store::Snapshot snapshot;
  snapshot.dataset = synthetic_dataset(21);
  for (int i = 0; i < 40; ++i) {
    data::Sample s;
    s.position = {0.1 * i, 1.0, 1.0};
    s.mac = *radio::MacAddress::parse("02:00:00:00:00:0c");
    s.rss_dbm = 1e308;
    snapshot.dataset.add(s);
  }
  snapshot.model = ml::make_model(ml::ModelKind::BaselineMeanPerMac);
  snapshot.model->fit(snapshot.dataset.samples());
  const auto engine = std::make_shared<const serve::QueryEngine>(std::move(snapshot), 1 << 20);
  ServerHarness harness;
  harness.server().add_engine("default", engine);
  const std::uint16_t port = harness.start();

  Client first(port);
  ASSERT_TRUE(first.connected());
  first.send_all(
      "{\"id\":1,\"type\":\"point\",\"mac\":\"02:00:00:00:00:0c\",\"x\":1,\"y\":1,\"z\":1}\n");
  const std::vector<std::string> bad = first.read_lines(1);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("\"ok\":false"), std::string::npos) << bad[0];
  EXPECT_NE(bad[0].find("non-finite"), std::string::npos) << bad[0];

  Client second(port);
  ASSERT_TRUE(second.connected());
  const std::string request =
      std::string("{\"id\":2,\"type\":\"point\",\"mac\":\"") + kMacA +
      "\",\"x\":1.5,\"y\":1,\"z\":1}\n";
  second.send_all(request);
  const std::vector<std::string> good = second.read_lines(1);
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(good[0], engine->execute(serve::parse_request(request)).to_jsonl());
}

TEST_F(NetServerTest, HotReloadSwapsWithZeroDroppedRequests) {
  const std::string path = ::testing::TempDir() + "net_reload.snap";
  store::save_snapshot_file(path, make_snapshot(77));

  ServerHarness harness;
  harness.server().add_engine("default", make_engine(21));
  const std::uint16_t port = harness.start();

  Client data(port);
  Client admin(port);
  ASSERT_TRUE(data.connected());
  ASSERT_TRUE(admin.connected());

  // Keep queries flowing while the reload loads + swaps in the background.
  std::string before;
  for (int i = 1; i <= 30; ++i) before += point_line(i, 0.1 * i);
  data.send_all(before);
  admin.send_all("{\"id\":900,\"type\":\"reload\",\"snapshot\":\"" + path + "\"}\n");
  std::string after;
  for (int i = 31; i <= 60; ++i) after += point_line(i, 0.1 * i);
  data.send_all(after);

  const std::vector<std::string> reload_lines = admin.read_lines(1);
  ASSERT_EQ(reload_lines.size(), 1u);
  EXPECT_TRUE(line_ok(reload_lines[0])) << reload_lines[0];
  EXPECT_EQ(line_id(reload_lines[0]), 900);
  EXPECT_NE(reload_lines[0].find("\"reloaded\":true"), std::string::npos);

  // Zero drops: all 60 data responses arrive, in order, all ok.
  const std::vector<std::string> lines = data.read_lines(60);
  ASSERT_EQ(lines.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(line_id(lines[static_cast<std::size_t>(i)]), i + 1);
    EXPECT_TRUE(line_ok(lines[static_cast<std::size_t>(i)])) << lines[static_cast<std::size_t>(i)];
  }

  // Queries sent after the swap acknowledgement run on the new snapshot.
  const std::shared_ptr<const serve::QueryEngine> reloaded =
      std::make_shared<const serve::QueryEngine>(store::load_snapshot_file(path), 1 << 20);
  data.send_all(point_line(61, 1.25));
  const std::vector<std::string> swapped = data.read_lines(1);
  ASSERT_EQ(swapped.size(), 1u);
  EXPECT_EQ(swapped[0],
            reloaded->execute(serve::parse_request(point_line(61, 1.25))).to_jsonl());
  EXPECT_EQ(harness.server().stats().reload_swaps, 1u);

  // A reload of a bogus file fails cleanly and swaps nothing.
  admin.send_all("{\"id\":901,\"type\":\"reload\",\"snapshot\":\"/nonexistent.snap\"}\n");
  const std::vector<std::string> failed = admin.read_lines(1);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_FALSE(line_ok(failed[0]));
  EXPECT_NE(failed[0].find("reload failed"), std::string::npos);
  EXPECT_EQ(harness.server().stats().reload_failures, 1u);
}

TEST_F(NetServerTest, IngestPublishServesAcrossEpochsWithZeroDrops) {
  // A live IngestPipeline hot-publishes into the running server while a
  // client pipelines point queries across two epoch swaps: no request may
  // drop, every response must be byte-identical to the engine pinned at its
  // admission, and stats must surface the new epoch id after each swap.
  ingest::IngestConfig config;
  config.volume = geom::Aabb({0, 0, 0}, {4.0, 3.0, 2.0});
  config.rem.voxel_m = 0.5;
  config.rem.min_samples_per_mac = 1;
  config.cache_bytes = 1 << 20;
  config.map = "default";

  ServerHarness harness;
  config.server = &harness.server();
  ingest::IngestPipeline pipeline(std::move(config));

  // An engine equivalent to what each publish installed, rebuilt from the
  // same serialised epoch bytes.
  const auto engine_for = [&pipeline] {
    std::istringstream in(pipeline.latest_snapshot_bytes());
    return std::make_shared<const serve::QueryEngine>(store::load_snapshot(in), 1 << 20);
  };

  pipeline.push_batch(synthetic_dataset(21).samples());
  ASSERT_TRUE(pipeline.flush().has_value());  // Epoch 1 published pre-bind.
  const auto engine1 = engine_for();
  const std::uint16_t port = harness.start();

  Client data(port);
  ASSERT_TRUE(data.connected());
  std::vector<std::string> requests;
  const auto burst = [&requests](int from, int to) {
    std::string text;
    for (int i = from; i <= to; ++i) {
      requests.push_back(point_line(i, 0.05 * i));
      text += requests.back();
    }
    return text;
  };

  data.send_all(burst(1, 20));
  pipeline.push_batch(synthetic_dataset(33).samples());
  const auto epoch2 = pipeline.flush();  // Epoch 2, live under traffic.
  ASSERT_TRUE(epoch2.has_value() && epoch2->published);
  const auto engine2 = engine_for();
  data.send_all(burst(21, 40));
  pipeline.push_batch(synthetic_dataset(44).samples());
  const auto epoch3 = pipeline.flush();  // Epoch 3.
  ASSERT_TRUE(epoch3.has_value() && epoch3->published);
  const auto engine3 = engine_for();
  data.send_all(burst(41, 60));

  // Zero drops across both swaps: all 60 responses, in order, all ok.
  const std::vector<std::string> lines = data.read_lines(60);
  ASSERT_EQ(lines.size(), 60u);
  const std::vector<std::shared_ptr<const serve::QueryEngine>> engines{engine1, engine2,
                                                                       engine3};
  std::size_t epoch_floor = 0;  // Swaps only move forward, never back.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(line_id(lines[i]), static_cast<std::int64_t>(i) + 1);
    EXPECT_TRUE(line_ok(lines[i])) << lines[i];
    const serve::Request request = serve::parse_request(requests[i]);
    std::size_t matched = engines.size();
    for (std::size_t e = epoch_floor; e < engines.size(); ++e) {
      if (lines[i] == engines[e]->execute(request).to_jsonl()) {
        matched = e;
        break;
      }
    }
    ASSERT_LT(matched, engines.size()) << "line " << i << " matches no epoch: " << lines[i];
    epoch_floor = matched;
  }

  // Queries sent after the last publish run on the epoch-3 engine.
  data.send_all(point_line(61, 1.25));
  const std::vector<std::string> swapped = data.read_lines(1);
  ASSERT_EQ(swapped.size(), 1u);
  EXPECT_EQ(swapped[0],
            engine3->execute(serve::parse_request(point_line(61, 1.25))).to_jsonl());

  // The admin plane reports the publishes and the live epoch id.
  Client admin(port);
  ASSERT_TRUE(admin.connected());
  admin.send_all("{\"id\":900,\"type\":\"stats\"}\n");
  const std::vector<std::string> stats_lines = admin.read_lines(1);
  ASSERT_EQ(stats_lines.size(), 1u);
  const obs::Json stats = obs::Json::parse(stats_lines[0]);
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("publish_swaps").as_int64(), 3);
  EXPECT_EQ(stats.at("map_stats").at("default").at("epoch").as_int64(), 3);

  harness.stop();  // Join first: the epoch map is loop-thread state.
  EXPECT_EQ(harness.server().stats().publish_swaps, 3u);
  EXPECT_EQ(harness.server().map_epochs().at("default"), 3u);
}

TEST_F(NetServerTest, GracefulDrainFinishesQueuedWorkThenCloses) {
  // max_batch 1: one request executes per loop round, so receiving the first
  // response proves the remaining pipelined requests are still queued when
  // shutdown fires — the drain owes them all.
  ServerConfig config;
  config.max_batch = 1;
  ServerHarness harness(std::move(config));
  harness.server().add_engine("default", make_engine());
  const std::uint16_t port = harness.start();

  Client client(port);
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 1; i <= 40; ++i) burst += point_line(i, 0.1 * i);
  client.send_all(burst);
  client.half_close();  // Pipelined client done sending; responses still owed.
  const std::vector<std::string> first = client.read_lines(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(line_id(first[0]), 1);
  harness.server().request_shutdown();

  const std::vector<std::string> rest = client.read_lines(39);
  ASSERT_EQ(rest.size(), 39u);
  for (int i = 0; i < 39; ++i) {
    EXPECT_EQ(line_id(rest[static_cast<std::size_t>(i)]), i + 2);
    EXPECT_TRUE(line_ok(rest[static_cast<std::size_t>(i)]));
  }
  EXPECT_TRUE(client.wait_eof());
  harness.stop();  // run() must have exited; join would hang otherwise.
  EXPECT_EQ(harness.server().stats().responses, 40u);
}

}  // namespace
}  // namespace remgen::net
