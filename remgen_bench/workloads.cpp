#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "core/rem_builder.hpp"
#include "exec/config.hpp"
#include "ingest/pipeline.hpp"
#include "mission/campaign.hpp"
#include "ml/model_zoo.hpp"
#include "net/server.hpp"
#include "obs/json.hpp"
#include "radio/scenario.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "spans.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace remgen::bench {

// ---------------------------------------------------------------- Result

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Result::add_quantile(const std::string& base, const Quantile& q, const std::string& unit) {
  add(base, q.value, unit);
  add(base + ".percentile", q.percentile, "%");
  add(base + ".count", static_cast<double>(q.count), "count");
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(what);
}

std::size_t exec_width(const std::string& workload, std::size_t nproc) {
  // survey: main thread (builds, probes) + server loop; query_mix: server
  // loop (pool caller) + client; live: sample pusher and server loop (both
  // pool callers) + client.
  const std::size_t beside = workload == "live" ? 2 : 1;
  return nproc > beside ? nproc - beside : 1;
}

namespace {

constexpr std::size_t kCacheBytes = std::size_t{64} << 20;
constexpr std::size_t kMinSamplesPerMac = 16;  // The paper's gate.
constexpr ml::ModelKind kModel = ml::ModelKind::KnnScaled16;
constexpr int kSetupRepeats = 3;
constexpr double kReplyTimeoutUs = 30e6;

/// Problem size: the paper's campaign, or a tiny one for the smoke run.
struct Sizes {
  mission::WaypointGridConfig grid;
  double voxel_m = 0.25;
};

Sizes sizes_for(const Options& options) {
  Sizes sizes;
  if (options.smoke) {
    sizes.grid.nx = 4;
    sizes.grid.ny = 3;
    sizes.grid.nz = 2;
    sizes.voxel_m = 0.5;
  }
  return sizes;
}

/// Independent 64-bit streams from one workload seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

/// The default apartment (the remgen CLI's default seed). The building is
/// the fixed environment; the workload seed varies what is measured in it.
radio::Scenario make_scenario() {
  util::Rng rng(2022);
  return radio::Scenario::make_apartment(rng);
}

core::RemBuilderConfig rem_config(const Sizes& sizes) {
  core::RemBuilderConfig config;
  config.voxel_m = sizes.voxel_m;
  config.min_samples_per_mac = kMinSamplesPerMac;
  return config;
}

/// What a batch build produced, besides its snapshot.
struct BuildFacts {
  std::size_t samples = 0;
  std::size_t waypoints = 0;
  std::size_t covered = 0;
  std::size_t rows_kept = 0;
  std::size_t cells = 0;
};

data::Dataset run_campaign(const radio::Scenario& scenario, const Sizes& sizes,
                           std::uint64_t campaign_seed, BuildFacts& facts) {
  const Scope span("mission.run_campaign");
  mission::CampaignConfig config;
  config.grid = sizes.grid;
  config.uav_count = 2;
  util::Rng rng(campaign_seed);
  mission::CampaignResult result = mission::run_campaign(scenario, config, rng);
  facts.samples = result.dataset.size();
  facts.waypoints = result.coverage.size();
  facts.covered = static_cast<std::size_t>(std::count_if(
      result.coverage.begin(), result.coverage.end(), [](const auto& c) { return c.covered; }));
  return std::move(result.dataset);
}

/// The one-shot batch recipe (remgen campaign --snapshot-out): gate, fit
/// and sweep, serialise. Returns the REMSNAP1 bytes.
std::string batch_snapshot(const data::Dataset& raw, const geom::Aabb& volume,
                           const Sizes& sizes, BuildFacts& facts) {
  store::Snapshot snapshot;
  {
    const Scope span("data.filter");
    snapshot.dataset = raw.filter_min_samples_per_mac(kMinSamplesPerMac);
  }
  std::unique_ptr<ml::Estimator> model = ml::make_model(kModel);
  {
    const Scope span("core.build_rem");
    snapshot.rem.emplace(core::build_rem(raw, *model, volume, rem_config(sizes)));
  }
  snapshot.model = std::move(model);
  facts.rows_kept = snapshot.dataset.size();
  facts.cells = snapshot.rem->macs().size() * snapshot.rem->geometry().voxel_count();
  std::ostringstream out;
  {
    const Scope span("store.save");
    store::save_snapshot(out, snapshot);
  }
  return std::move(out).str();
}

store::Snapshot load_bytes(const std::string& bytes) {
  const Scope span("store.load");
  std::istringstream in(bytes);
  return store::load_snapshot(in);
}

std::shared_ptr<const serve::QueryEngine> engine_from(const std::string& bytes) {
  store::Snapshot snapshot = load_bytes(bytes);
  const Scope span("serve.engine_init");
  return std::make_shared<const serve::QueryEngine>(std::move(snapshot), kCacheBytes);
}

/// A net::Server running its event loop on its own thread.
class ServerThread {
 public:
  explicit ServerThread(std::shared_ptr<const serve::QueryEngine> engine)
      : server_(net::ServerConfig{}) {
    server_.add_engine("rem", std::move(engine));
    port_ = server_.bind_and_listen();
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// Drains and joins; stats() and error() are readable afterwards.
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_shutdown();
    thread_.join();
  }
  [[nodiscard]] net::Server& server() { return server_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  net::Server server_;
  std::uint16_t port_ = 0;
  std::string error_;
  std::thread thread_;
};

// ------------------------------------------------------------ requests

geom::Vec3 continuous_point(util::Rng& rng, const geom::Aabb& volume) {
  return {rng.uniform(volume.min.x, volume.max.x), rng.uniform(volume.min.y, volume.max.y),
          rng.uniform(volume.min.z, volume.max.z)};
}

/// A point of the 0.25 m lattice inside the volume: repeats hit the cache.
geom::Vec3 lattice_point(util::Rng& rng, const geom::Aabb& volume) {
  const auto axis = [&](double lo, double hi) {
    const auto cells = static_cast<std::int64_t>(std::floor((hi - lo) / 0.25));
    return lo + 0.25 * static_cast<double>(rng.uniform_int(0, cells));
  };
  return {axis(volume.min.x, volume.max.x), axis(volume.min.y, volume.max.y),
          axis(volume.min.z, volume.max.z)};
}

obs::Json::Object request_head(std::int64_t id, const char* type) {
  return obs::Json::Object{{"id", obs::Json(id)}, {"type", obs::Json(type)}};
}

std::string point_line(std::int64_t id, const radio::MacAddress& mac, const geom::Vec3& p) {
  obs::Json::Object o = request_head(id, "point");
  o["mac"] = obs::Json(mac.to_string());
  o["x"] = obs::Json(p.x);
  o["y"] = obs::Json(p.y);
  o["z"] = obs::Json(p.z);
  return obs::Json(std::move(o)).dump();
}

std::string top_line(std::int64_t id, const geom::Vec3& p, std::int64_t top) {
  obs::Json::Object o = request_head(id, "point");
  o["top"] = obs::Json(top);
  o["x"] = obs::Json(p.x);
  o["y"] = obs::Json(p.y);
  o["z"] = obs::Json(p.z);
  return obs::Json(std::move(o)).dump();
}

std::string batch_line(std::int64_t id, const radio::MacAddress& mac,
                       const std::vector<geom::Vec3>& points) {
  obs::Json::Object o = request_head(id, "batch");
  o["mac"] = obs::Json(mac.to_string());
  obs::Json::Array list;
  for (const geom::Vec3& p : points) {
    list.push_back(obs::Json(obs::Json::Array{obs::Json(p.x), obs::Json(p.y), obs::Json(p.z)}));
  }
  o["points"] = obs::Json(std::move(list));
  return obs::Json(std::move(o)).dump();
}

std::string volume_line(std::int64_t id, double z_lo, double z_hi, double threshold_dbm) {
  obs::Json::Object o = request_head(id, "volume");
  o["z_lo"] = obs::Json(z_lo);
  o["z_hi"] = obs::Json(z_hi);
  o["threshold_dbm"] = obs::Json(threshold_dbm);
  return obs::Json(std::move(o)).dump();
}

const char* type_label(const serve::Request& request) {
  switch (request.type) {
    case serve::RequestType::Point: return request.mac.has_value() ? "point" : "top";
    case serve::RequestType::Batch: return "batch";
    case serve::RequestType::Volume: return "volume";
  }
  return "point";
}

/// In-process execute() of request lines, in order, on a fresh engine.
struct Replay {
  std::vector<const char*> type;
  std::vector<double> exec_us;
  std::vector<bool> hit;  ///< The cache hit counter moved across the call.
};

Replay replay(const std::string& snapshot_bytes, const std::vector<std::string>& lines) {
  const std::shared_ptr<const serve::QueryEngine> engine = engine_from(snapshot_bytes);
  Replay out;
  for (const std::string& line : lines) {
    const serve::Request request = serve::parse_request(line);
    const std::uint64_t hits = engine->cache().hits();
    const Scope span("serve.execute");
    const double start = now_us();
    const serve::Response response = engine->execute(request);
    out.exec_us.push_back(now_us() - start);
    out.type.push_back(type_label(request));
    out.hit.push_back(engine->cache().hits() != hits);
  }
  return out;
}

// ------------------------------------------------------- layer metrics

/// Off-path layer timings on one campaign dataset: the fit that build_rem
/// runs inside, and the same build at exec width 1.
void time_fit_and_serial_build(const data::Dataset& raw, const geom::Aabb& volume,
                               const Sizes& sizes, std::size_t width) {
  const data::Dataset prepared = raw.filter_min_samples_per_mac(kMinSamplesPerMac);
  for (int i = 0; i < 3; ++i) {
    const std::unique_ptr<ml::Estimator> model = ml::make_model(kModel);
    const Scope span("ml.fit");
    model->fit(prepared.samples());
  }
  exec::set_thread_count(1);
  {
    const std::unique_ptr<ml::Estimator> model = ml::make_model(kModel);
    const Scope span("core.build_rem_1t");
    (void)core::build_rem(raw, *model, volume, rem_config(sizes));
  }
  exec::set_thread_count(width);
}

/// Per-layer metrics every workload reports, from its spans and build facts.
void add_batch_layers(Result& r, const std::vector<SpanRecord>& spans, const BuildFacts& facts,
                      std::size_t snapshot_bytes, std::size_t width) {
  const auto med = [&](const char* name) { return median(durations_s(spans, name)); };
  r.add("mission.campaign_s", med("mission.run_campaign"), "s");
  r.add("mission.samples", static_cast<double>(facts.samples), "count");
  r.add("mission.waypoints_covered", static_cast<double>(facts.covered), "count");
  r.add("mission.waypoints", static_cast<double>(facts.waypoints), "count");
  r.add("data.filter_s", med("data.filter"), "s");
  r.add("data.rows_kept_ratio",
        facts.samples > 0 ? static_cast<double>(facts.rows_kept) / facts.samples : 0.0, "ratio");
  const double fit = med("ml.fit");
  const double build = med("core.build_rem");
  const double build_1t = med("core.build_rem_1t");
  r.add("ml.fit_s", fit, "s");
  r.add("core.build_rem_s", build, "s");
  r.add("core.sweep_s", build - fit - med("data.filter"), "s");
  r.add("core.cells", static_cast<double>(facts.cells), "count");
  r.add("core.build_rem_1t_s", build_1t, "s");
  r.add("exec.threads", static_cast<double>(width), "count");
  r.add("exec.speedup.build_rem", build > 0.0 ? build_1t / build : 0.0, "ratio");
  r.add("store.save_s", med("store.save"), "s");
  r.add("store.load_s", med("store.load"), "s");
  r.add("store.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes");
  r.add("serve.engine_init_s", med("serve.engine_init"), "s");
}

/// serve.exec_us.* from a replay, and net.overhead_us against the client
/// latencies (send to reply) of the same requests.
void add_serve_layers(Result& r, const Replay& rep, const std::vector<double>& client_us) {
  std::map<std::string, std::vector<double>> by_type;
  std::vector<double> hit;
  std::vector<double> miss;
  std::vector<double> overhead;
  for (std::size_t i = 0; i < rep.exec_us.size(); ++i) {
    by_type[rep.type[i]].push_back(rep.exec_us[i]);
    (rep.hit[i] ? hit : miss).push_back(rep.exec_us[i]);
    if (i < client_us.size()) overhead.push_back(client_us[i] - rep.exec_us[i]);
  }
  for (const char* type : {"point", "top", "batch", "volume"}) {
    const std::vector<double>& v = by_type[type];
    r.add(std::string("serve.exec_us.") + type + ".p50", percentile(v, 50).value, "us");
    r.add(std::string("serve.exec_us.") + type + ".p99", percentile(v, 99).value, "us");
    r.add(std::string("serve.exec_us.") + type + ".count", static_cast<double>(v.size()),
          "count");
  }
  r.add("serve.exec_us.hit.p50", percentile(hit, 50).value, "us");
  r.add("serve.exec_us.miss.p50", percentile(miss, 50).value, "us");
  r.add("net.overhead_us.p50", percentile(overhead, 50).value, "us");
  r.add("net.overhead_us.p99", percentile(overhead, 99).value, "us");
}

void add_net_layers(Result& r, const net::ServerStats& s) {
  r.add("net.requests", static_cast<double>(s.requests), "count");
  r.add("net.overload_rejections", static_cast<double>(s.overload_rejections), "count");
  r.add("net.parse_errors", static_cast<double>(s.parse_errors), "count");
  r.add("net.cache_hits", static_cast<double>(s.cache_hits), "count");
  r.add("net.cache_misses", static_cast<double>(s.cache_misses), "count");
  r.add("net.publish_swaps", static_cast<double>(s.publish_swaps), "count");
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  r.add("serve.cache_hit_ratio", lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0,
        "ratio");
}

/// trace.coverage, trace.overhead and each layer's share of the blocking
/// path, from the spans under the workload's end-to-end root spans.
void add_trace_layers(Result& r, const std::vector<SpanRecord>& spans, const std::string& root,
                      double untraced_p50, double traced_p50) {
  const Breakdown b = breakdown(spans, root);
  r.add("trace.coverage", b.coverage(), "ratio");
  r.add("trace.overhead", untraced_p50 > 0.0 ? traced_p50 / untraced_p50 : 0.0, "ratio");
  r.add("trace.roots", static_cast<double>(b.roots), "count");
  for (const char* layer : {"gen", "mission", "data", "core", "store", "serve", "net", "ingest"}) {
    const auto it = b.self_us.find(layer);
    const double self = it == b.self_us.end() ? 0.0 : it->second;
    r.add(std::string("trace.self_share.") + layer, b.wall_us > 0 ? self / b.wall_us : 0.0,
          "ratio");
    r.add(std::string("trace.self_s.") + layer, self / 1e6, "s");
  }
}

void add_common(Result& r, const std::vector<double>& setup_s) {
  r.add("setup_s", median(setup_s), "s");
  r.gate("setup_s", median(setup_s));
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.gate("peak_rss_mb", peak_rss_mb());
  r.add("error_rate",
        r.attempted() > 0 ? static_cast<double>(r.failed()) / r.attempted() : 0.0, "ratio");
}

}  // namespace

// ================================================================ survey
//
// Back-to-back map builds; each runs campaign -> gate -> fit -> build_rem
// -> save -> load -> engine -> publish into the running server, and ends at
// the first correct probe answer over TCP.

Result run_survey(const Options& options) {
  Result r;
  const Sizes sizes = sizes_for(options);
  const std::size_t width = exec_width("survey", options.nproc);
  const std::size_t seed_count = options.smoke ? 2 : 6;     // Campaign seeds cycled.
  const std::size_t reads_per_map = options.smoke ? 4 : 16;  // Checked reads per map.

  std::optional<radio::Scenario> scenario;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> bytes_by_seed(seed_count);
  std::unique_ptr<ServerThread> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const double t0 = now_us();
    scenario.emplace(make_scenario());
    seeds.clear();
    for (std::size_t k = 0; k < seed_count; ++k) seeds.push_back(derive(options.seed, k));
    BuildFacts facts;
    const data::Dataset raw = run_campaign(*scenario, sizes, seeds[0], facts);
    bytes_by_seed[0] = batch_snapshot(raw, scenario->scan_volume(), sizes, facts);
    server = std::make_unique<ServerThread>(engine_from(bytes_by_seed[0]));
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  const geom::Aabb volume = scenario->scan_volume();

  struct MapReads {
    std::size_t seed_index = 0;
    std::vector<std::string> lines;
    std::vector<double> client_us;
  };
  struct Phase {
    std::vector<double> map_s;
    std::vector<double> read_us;
    double wall_s = 0.0;
    std::vector<MapReads> reads;
    data::Dataset last_raw;
    BuildFacts facts;
  };
  std::uint64_t map_index = 1;
  util::Rng read_rng(derive(options.seed, 1000));

  const auto phase = [&](double seconds, bool traced) {
    tracer().set_enabled(traced);
    Phase out;
    LoopClient client(server->port(), 1);
    const double start = now_us();
    while (out.map_s.empty() || now_us() - start < seconds * 1e6) {
      const std::size_t si = map_index % seed_count;
      const std::int64_t root = tracer().open("e2e.map");
      const double t0 = now_us();
      BuildFacts facts;
      data::Dataset raw = run_campaign(*scenario, sizes, seeds[si], facts);
      std::string bytes = batch_snapshot(raw, volume, sizes, facts);
      const std::shared_ptr<const serve::QueryEngine> engine = engine_from(bytes);
      const std::vector<radio::MacAddress>& macs = engine->macs();
      const std::string probe = point_line(static_cast<std::int64_t>(map_index),
                                           macs[map_index % macs.size()], volume.center());
      std::string expected;
      {
        const Scope span("serve.execute");
        expected = engine->execute(serve::parse_request(probe)).to_jsonl();
      }
      {
        const Scope span("net.publish");
        server->server().publish("rem", engine, map_index);
      }
      bool answered = false;
      double answered_us = 0.0;
      while (!answered && now_us() - t0 < kReplyTimeoutUs) {
        const Scope span("net.probe");
        const Reply reply = client.round_trip(0, probe);
        answered = reply.line == expected;
        answered_us = reply.recv_us;
      }
      tracer().close(root, answered_us);
      r.check(answered, "survey: no correct probe answer from map " + std::to_string(map_index));
      out.map_s.push_back((answered_us - t0) / 1e6);

      if (bytes_by_seed[si].empty()) {
        bytes_by_seed[si] = std::move(bytes);
      } else {
        r.check(bytes == bytes_by_seed[si],
                "survey: recurring campaign seed gave different snapshot bytes");
      }
      MapReads reads;
      reads.seed_index = si;
      for (std::size_t j = 0; j < reads_per_map; ++j) {
        const std::string line = point_line(static_cast<std::int64_t>(j),
                                            macs[read_rng.index(macs.size())],
                                            continuous_point(read_rng, volume));
        const Reply reply = client.round_trip(0, line);
        const std::string want = engine->execute(serve::parse_request(line)).to_jsonl();
        r.check(reply.line == want, "survey: TCP reply differs from offline execute");
        out.read_us.push_back(reply.recv_us - reply.due_us);
        reads.lines.push_back(line);
        reads.client_us.push_back(reply.recv_us - reply.sent_us);
      }
      out.reads.push_back(std::move(reads));
      out.last_raw = std::move(raw);
      out.facts = facts;
      ++map_index;
    }
    out.wall_s = (now_us() - start) / 1e6;
    tracer().set_enabled(false);
    return out;
  };

  const auto report = [&](const Phase& p) {
    const Quantile map_p50 = percentile(p.map_s, 50);
    const Quantile map_tail = tail(p.map_s);
    const Quantile read_p99 = percentile(p.read_us, 99);
    r.add_quantile("survey.map_s.p50", map_p50, "s");
    r.add_quantile("survey.map_s.tail", map_tail, "s");
    r.add_quantile("survey.read_us.p99", read_p99, "us");
    r.add("survey.maps", static_cast<double>(p.map_s.size()), "count");
    r.add("survey.maps_per_s", static_cast<double>(p.map_s.size()) / p.wall_s, "1/s");
    r.gate("p50_ms", map_p50.value * 1e3);
    r.gate("tail_ms", map_tail.value * 1e3);
    r.gate("capacity_per_s", static_cast<double>(p.map_s.size()) / p.wall_s);
  };

  if (!options.trace) {
    report(phase(options.seconds, false));
    server->stop();
  } else {
    const Phase plain = phase(options.seconds / 2, false);
    report(plain);
    const Phase traced = phase(options.seconds / 2, true);
    server->stop();
    tracer().set_enabled(true);
    time_fit_and_serial_build(traced.last_raw, volume, sizes, width);
    std::vector<std::string> lines;
    std::vector<double> client_us;
    Replay all;
    for (const MapReads& m : traced.reads) {
      const Replay one = replay(bytes_by_seed[m.seed_index], m.lines);
      all.type.insert(all.type.end(), one.type.begin(), one.type.end());
      all.exec_us.insert(all.exec_us.end(), one.exec_us.begin(), one.exec_us.end());
      all.hit.insert(all.hit.end(), one.hit.begin(), one.hit.end());
      client_us.insert(client_us.end(), m.client_us.begin(), m.client_us.end());
    }
    tracer().set_enabled(false);
    const std::vector<SpanRecord> spans = tracer().spans();
    add_batch_layers(r, spans, traced.facts, bytes_by_seed[0].size(), width);
    add_serve_layers(r, all, client_us);
    add_net_layers(r, server->server().stats());
    add_trace_layers(r, spans, "e2e.map", median(plain.map_s), median(traced.map_s));
  }
  r.check(server->error().empty(), "survey: server loop failed: " + server->error());
  add_common(r, setup_s);
  return r;
}

// ============================================================= query_mix
//
// One fixed snapshot served over loopback TCP: an open-loop phase at a
// fixed rate well below capacity, then a closed-loop phase with a bounded
// window per connection. Every reply must be byte-identical to offline
// QueryEngine::execute of the same line.

Result run_query_mix(const Options& options) {
  Result r;
  // The served map is fixed; the workload seed draws the request mix.
  constexpr std::uint64_t kFixedCampaignSeed = 2022;
  const Sizes sizes = sizes_for(options);
  const std::size_t width = exec_width("query_mix", options.nproc);
  const std::size_t connections = std::min<std::size_t>(options.nproc, 4);
  const double open_rate = options.smoke ? 200.0 : 500.0;  // Requests per second.
  const std::size_t window = 8;  // Requests in flight per connection, closed loop.
  const double closed_pool_per_s = options.smoke ? 2000.0 : 12000.0;
  const bool traced_run = options.trace;
  // Phase lengths (each traced-run half is half as long).
  const double phase_s = traced_run ? options.seconds / 2 : options.seconds;
  const double open_s = phase_s * 3 / 4;
  const double closed_s = phase_s / 4;
  const std::size_t open_n = static_cast<std::size_t>(open_rate * open_s);
  const std::size_t closed_n = static_cast<std::size_t>(closed_pool_per_s * closed_s);

  tracer().set_enabled(traced_run);
  std::optional<radio::Scenario> scenario;
  std::string bytes;
  BuildFacts facts;
  data::Dataset raw;
  std::unique_ptr<ServerThread> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const double t0 = now_us();
    scenario.emplace(make_scenario());
    raw = run_campaign(*scenario, sizes, kFixedCampaignSeed, facts);
    bytes = batch_snapshot(raw, scenario->scan_volume(), sizes, facts);
    server = std::make_unique<ServerThread>(engine_from(bytes));
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  tracer().set_enabled(false);
  const geom::Aabb volume = scenario->scan_volume();

  // The request pool, generated from the seed. Expected replies come from
  // offline execute_all on a second engine: for the open-loop part before
  // the phase, for the closed-loop part after it (only what it sent).
  std::vector<std::string> lines;
  std::vector<serve::Request> requests;
  {
    const std::shared_ptr<const serve::QueryEngine> engine = engine_from(bytes);
    const std::vector<radio::MacAddress>& macs = engine->macs();
    util::Rng rng(derive(options.seed, 2000));
    for (std::size_t i = 0; i < open_n + closed_n; ++i) {
      const auto id = static_cast<std::int64_t>(i);
      const double u = rng.uniform01();
      std::string line;
      // Per-MAC points are just under half, so the median falls inside the
      // batch requests' latency mode instead of on the gap below it.
      if (u < 0.225) {
        line = point_line(id, macs[rng.index(macs.size())], lattice_point(rng, volume));
      } else if (u < 0.45) {
        line = point_line(id, macs[rng.index(macs.size())], continuous_point(rng, volume));
      } else if (u < 0.65) {
        line = top_line(id, continuous_point(rng, volume), 3);
      } else if (u < 0.95) {
        std::vector<geom::Vec3> points;
        for (int k = 0; k < 16; ++k) points.push_back(continuous_point(rng, volume));
        line = batch_line(id, macs[rng.index(macs.size())], points);
      } else {
        const double z_lo = rng.uniform(volume.min.z, volume.max.z - 0.5);
        line = volume_line(id, z_lo, z_lo + 0.5, rng.uniform(-90.0, -60.0));
      }
      requests.push_back(serve::parse_request(line));
      lines.push_back(std::move(line));
    }
  }
  const auto expect = [&](std::size_t begin, std::size_t end) {
    const std::shared_ptr<const serve::QueryEngine> oracle = engine_from(bytes);
    const std::vector<serve::Request> slice(requests.begin() + static_cast<long>(begin),
                                            requests.begin() + static_cast<long>(end));
    std::vector<std::string> out;
    for (const serve::Response& response : oracle->execute_all(slice)) {
      out.push_back(response.to_jsonl());
    }
    return out;
  };
  // The server is idle until the phase starts, so the oracle may use every CPU.
  exec::set_thread_count(options.nproc);
  const std::vector<std::string> open_expected = expect(0, open_n);
  exec::set_thread_count(width);

  struct Phase {
    std::vector<double> latency_us;  ///< Open loop, from due time.
    std::vector<double> client_us;   ///< Open loop, from send.
    std::vector<double> late_ms;
    std::vector<Reply> closed;       ///< Closed-loop replies, checked after the phase.
    double closed_start = 0.0;
    double qps = 0.0;
  };
  const auto phase = [&](bool traced) {
    tracer().set_enabled(traced);
    Phase out;
    out.latency_us.resize(open_n, kReplyTimeoutUs);
    out.client_us.resize(open_n, kReplyTimeoutUs);
    LoopClient client(server->port(), connections);
    const auto on_open = [&](const Reply& reply) {
      const bool ok = reply.tag >= 0 && static_cast<std::size_t>(reply.tag) < open_n &&
                      reply.line == open_expected[static_cast<std::size_t>(reply.tag)];
      r.check(ok, "query_mix: open-loop reply differs from offline execute");
      if (!ok) return;
      const auto i = static_cast<std::size_t>(reply.tag);
      out.latency_us[i] = reply.recv_us - reply.due_us;
      out.client_us[i] = reply.recv_us - reply.sent_us;
      const std::int64_t root =
          tracer().record("e2e.request", reply.due_us, reply.recv_us, -1, reply.tag);
      tracer().record("gen.late", reply.due_us, reply.sent_us, root, reply.tag);
      tracer().record("net.request", reply.sent_us, reply.recv_us, root, reply.tag);
    };
    const double start = now_us() + 1000.0;
    for (std::size_t i = 0; i < open_n; ++i) {
      const double due = start + 1e6 * static_cast<double>(i) / open_rate;
      while (now_us() < due) {
        if (!client.pump(due, on_open)) break;
      }
      client.send(i % connections, lines[i], static_cast<std::int64_t>(i), due);
      out.late_ms.push_back((now_us() - due) / 1e3);
    }
    r.check(client.drain(now_us() + kReplyTimeoutUs, on_open),
            "query_mix: open-loop replies missing");
    tracer().set_enabled(false);

    // Closed loop: `window` requests in flight per connection.
    std::size_t next = open_n;
    const std::size_t end = open_n + closed_n;
    out.closed_start = now_us();
    const double stop_sending = out.closed_start + closed_s * 1e6;
    const auto send_next = [&](std::size_t conn) {
      if (next >= end || now_us() >= stop_sending) return;
      client.send(conn, lines[next], static_cast<std::int64_t>(next), now_us());
      ++next;
    };
    const auto on_closed = [&](const Reply& reply) {
      out.closed.push_back(reply);
      send_next(reply.conn);
    };
    for (std::size_t c = 0; c < connections; ++c) {
      for (std::size_t w = 0; w < window; ++w) send_next(c);
    }
    r.check(client.drain(stop_sending + kReplyTimeoutUs, on_closed),
            "query_mix: closed-loop replies missing");
    return out;
  };
  // Checks the closed-loop replies (server stopped, so the oracle may use
  // every CPU) and takes the throughput of the correct ones.
  const auto settle = [&](Phase& p) {
    std::size_t sent = 0;
    for (const Reply& reply : p.closed) {
      if (reply.tag >= 0) sent = std::max(sent, static_cast<std::size_t>(reply.tag) + 1);
    }
    sent = std::max(sent, open_n);
    exec::set_thread_count(options.nproc);
    const std::vector<std::string> want = expect(open_n, sent);
    exec::set_thread_count(width);
    std::size_t ok_count = 0;
    double last_ok = p.closed_start;
    for (const Reply& reply : p.closed) {
      const bool ok = reply.tag >= static_cast<std::int64_t>(open_n) &&
                      static_cast<std::size_t>(reply.tag) < sent &&
                      reply.line == want[static_cast<std::size_t>(reply.tag) - open_n];
      r.check(ok, "query_mix: closed-loop reply differs from offline execute");
      if (!ok) continue;
      ++ok_count;
      last_ok = std::max(last_ok, reply.recv_us);
    }
    p.qps = last_ok > p.closed_start
                ? static_cast<double>(ok_count) / ((last_ok - p.closed_start) / 1e6)
                : 0.0;
    p.closed.clear();
  };

  const auto report = [&](const Phase& p) {
    const Quantile p50 = percentile(p.latency_us, 50);
    const Quantile p90 = percentile(p.latency_us, 90);
    const Quantile p99 = percentile(p.latency_us, 99);
    r.add_quantile("query.p50_us", p50, "us");
    r.add_quantile("query.p90_us", p90, "us");
    r.add_quantile("query.p99_us", p99, "us");
    r.add("query.qps", p.qps, "1/s");
    r.add("query.open_rate", open_rate, "1/s");
    r.add("gen.late_ms.p99", percentile(p.late_ms, 99).value, "ms");
    // p90, not p99: on a VM whose vCPUs are preempted for milliseconds the
    // p99 of 11k requests follows the host's stalls (2.4-16 ms over ten runs).
    r.gate("p50_ms", p50.value / 1e3);
    r.gate("tail_ms", p90.value / 1e3);
    r.gate("capacity_per_s", p.qps);
  };

  Phase plain = phase(false);
  server->stop();
  r.check(server->error().empty(), "query_mix: server loop failed: " + server->error());
  settle(plain);
  report(plain);
  if (traced_run) {
    server = std::make_unique<ServerThread>(engine_from(bytes));
    Phase traced = phase(true);
    server->stop();
    r.check(server->error().empty(), "query_mix: server loop failed: " + server->error());
    settle(traced);
    tracer().set_enabled(true);
    time_fit_and_serial_build(raw, volume, sizes, width);
    const std::vector<std::string> open_lines(lines.begin(),
                                              lines.begin() + static_cast<long>(open_n));
    const Replay rep = replay(bytes, open_lines);
    tracer().set_enabled(false);
    const std::vector<SpanRecord> spans = tracer().spans();
    add_batch_layers(r, spans, facts, bytes.size(), width);
    add_serve_layers(r, rep, traced.client_us);
    add_net_layers(r, server->server().stats());
    add_trace_layers(r, spans, "e2e.request", median(plain.latency_us),
                     median(traced.latency_us));
  }
  add_common(r, setup_s);
  return r;
}

// ================================================================== live
//
// The campaign's sample stream pushed open-loop into an IngestPipeline that
// cuts an epoch every N samples and hot-publishes into the server, while a
// client sends point queries at a fixed low rate and polls "stats" to see
// when each epoch becomes visible.

Result run_live(const Options& options) {
  Result r;
  std::mutex check_mutex;  // The reader thread checks replies beside the pusher.
  const auto check = [&](bool ok, const std::string& what) {
    const std::lock_guard<std::mutex> lock(check_mutex);
    r.check(ok, what);
  };
  const Sizes sizes = sizes_for(options);
  const std::size_t width = exec_width("live", options.nproc);
  const std::size_t epoch_samples = options.smoke ? 100 : 300;
  const double sample_rate = 350.0;                        // Samples per second.
  const double query_rate = options.smoke ? 50.0 : 100.0;  // Point queries per second.
  const double stats_every_us = 10000.0;                   // One "stats" poll per 10 ms.
  const double pass_gap_s = 0.5;  // Allowance for the checks between passes.

  // Passes cycle over several campaign streams, so one odd campaign does
  // not decide a run's figures.
  const std::size_t stream_count = options.smoke ? 1 : 3;

  tracer().set_enabled(options.trace);
  std::optional<radio::Scenario> scenario;
  std::vector<data::Dataset> streams;
  std::string first_reference;  // One-shot batch build of stream 0: the first map served.
  BuildFacts facts;
  std::unique_ptr<ServerThread> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const double t0 = now_us();
    scenario.emplace(make_scenario());
    streams.clear();
    for (std::size_t k = 0; k < stream_count; ++k) {
      // A whole number of epochs per stream: every epoch is cut by the
      // sample trigger, evenly spaced, and the end-of-stream flush adds none.
      BuildFacts other;
      std::vector<data::Sample> samples =
          run_campaign(*scenario, sizes, derive(options.seed, k), k == 0 ? facts : other)
              .samples();
      samples.resize(samples.size() / epoch_samples * epoch_samples);
      streams.emplace_back(std::move(samples));
    }
    first_reference = batch_snapshot(streams[0], scenario->scan_volume(), sizes, facts);
    server = std::make_unique<ServerThread>(engine_from(first_reference));
    setup_s.push_back((now_us() - t0) / 1e6);
  }
  tracer().set_enabled(false);
  const geom::Aabb volume = scenario->scan_volume();

  // The point queries of a pass name MACs of its stream's first epoch that
  // every stream's full gated set also has: the map served when the pass
  // starts (the previous stream's final epoch) and every epoch of the pass
  // can answer them, since the gate only ever admits more MACs.
  std::set<radio::MacAddress> everywhere;
  for (std::size_t k = 0; k < stream_count; ++k) {
    const std::set<radio::MacAddress> full =
        streams[k].filter_min_samples_per_mac(kMinSamplesPerMac).distinct_macs();
    if (k == 0) everywhere = full;
    std::erase_if(everywhere, [&](const radio::MacAddress& mac) { return !full.contains(mac); });
  }
  std::vector<std::vector<radio::MacAddress>> query_macs(stream_count);
  for (std::size_t k = 0; k < stream_count; ++k) {
    const std::vector<data::Sample>& samples = streams[k].samples();
    std::set<radio::MacAddress> first;
    for (std::size_t n = epoch_samples; first.empty() && n <= samples.size();
         n += epoch_samples) {
      const data::Dataset head(std::vector<data::Sample>(
          samples.begin(), samples.begin() + static_cast<long>(n)));
      first = head.filter_min_samples_per_mac(kMinSamplesPerMac).distinct_macs();
    }
    for (const radio::MacAddress& mac : first) {
      if (everywhere.contains(mac)) query_macs[k].push_back(mac);
    }
    if (query_macs[k].empty()) throw std::runtime_error("live: no MAC to query in a stream");
  }

  // Pass k replays stream k % stream_count; a phase runs the passes that fit.
  const auto pass_s = [&](std::size_t pass) {
    return static_cast<double>(streams[pass % stream_count].size()) / sample_rate + pass_gap_s;
  };
  const auto passes_in = [&](double seconds) {
    std::size_t passes = 1;
    for (double planned = pass_s(0); planned + pass_s(passes) <= seconds; ++passes) {
      planned += pass_s(passes);
    }
    return passes;
  };

  struct EpochRecord {
    std::uint64_t epoch = 0;
    double due_us = 0.0;    ///< When the epoch's last sample was due.
    double start_us = 0.0;  ///< Push/flush call that built it: start...
    double end_us = 0.0;    ///< ...and return (the publish is inside).
  };
  struct Phase {
    std::vector<double> freshness_ms;
    std::vector<double> visible_ms;
    std::vector<double> query_us;   ///< From due time.
    std::vector<double> client_us;  ///< From send.
    std::vector<std::string> query_lines;
    std::vector<double> late_ms;
    std::vector<double> push_late_ms;
    std::vector<double> push_us;  ///< Pushes that built no epoch.
    std::vector<double> epoch_full_s;
    std::vector<double> epoch_delta_s;
    std::vector<double> delta_bytes;
    std::vector<double> delta_ratio;
    std::vector<std::string> final_bytes;  ///< Final epoch of each stream's first pass.
    std::size_t epochs = 0;
    std::size_t pushed = 0;
    double busy_s = 0.0;  ///< Time inside push/flush calls.
  };

  util::Rng query_rng(derive(options.seed, 3000));
  const auto phase = [&](double seconds, bool traced) {
    tracer().set_enabled(traced);
    Phase out;
    std::mutex mutex;
    std::vector<EpochRecord> records;  // Guarded by mutex.
    std::atomic<bool> pushing_done{false};
    std::atomic<std::size_t> current_stream{0};  // Stream of the pass being pushed.

    std::thread reader([&] {
      try {
        LoopClient client(server->port(), 2);  // 0: point queries, 1: stats polls.
        std::size_t resolved = 0;
        const auto on_reply = [&](const Reply& reply) {
          if (reply.conn == 0) {
            bool ok = false;
            try {
              const obs::Json doc = obs::Json::parse(reply.line);
              ok = doc.at("ok").as_bool() && std::isfinite(doc.at("rss_dbm").as_double());
            } catch (const std::exception&) {
            }
            check(ok, "live: point query failed: " + reply.line.substr(0, 120));
            out.query_us.push_back(ok ? reply.recv_us - reply.due_us : kReplyTimeoutUs);
            out.client_us.push_back(reply.recv_us - reply.sent_us);
            return;
          }
          std::uint64_t shown = 0;
          bool ok = false;
          try {
            const obs::Json doc = obs::Json::parse(reply.line);
            shown = static_cast<std::uint64_t>(
                doc.at("map_stats").at("rem").at("epoch").as_int64());
            ok = true;
          } catch (const std::exception&) {
          }
          check(ok, "live: stats reply without the map's epoch");
          const std::lock_guard<std::mutex> lock(mutex);
          // Records publish in order; the newest one shown resolves every
          // record up to it (an epoch superseded between polls included).
          for (std::size_t k = resolved; k < records.size() && k <= resolved + 1; ++k) {
            if (records[k].epoch != shown) continue;
            for (; resolved <= k; ++resolved) {
              const EpochRecord& e = records[resolved];
              out.freshness_ms.push_back((reply.recv_us - e.due_us) / 1e3);
              out.visible_ms.push_back((reply.recv_us - e.end_us) / 1e3);
              const std::int64_t root =
                  tracer().record("e2e.freshness", e.due_us, reply.recv_us, -1);
              tracer().record("ingest.backlog", e.due_us, e.start_us, root);
              tracer().record("ingest.epoch", e.start_us, e.end_us, root);
              tracer().record("ingest.publish_visible", e.end_us, reply.recv_us, root);
            }
            break;
          }
        };
        const double start = now_us() + 1000.0;
        double next_query = start;
        double next_stats = start;
        const auto all_resolved = [&] {
          const std::lock_guard<std::mutex> lock(mutex);
          return resolved == records.size();
        };
        while (!(pushing_done.load() && all_resolved())) {
          const double until = std::min(next_query, next_stats);
          while (now_us() < until) {
            if (!client.pump(until, on_reply)) break;
          }
          if (now_us() >= next_query) {
            const std::int64_t id = static_cast<std::int64_t>(out.query_lines.size());
            const std::vector<radio::MacAddress>& macs = query_macs[current_stream.load()];
            std::string line = point_line(id, macs[query_rng.index(macs.size())],
                                          continuous_point(query_rng, volume));
            client.send(0, line, id, next_query);
            out.late_ms.push_back((now_us() - next_query) / 1e3);
            out.query_lines.push_back(std::move(line));
            next_query += 1e6 / query_rate;
          }
          if (now_us() >= next_stats) {
            if (client.outstanding(1) == 0) {
              client.send(1, R"({"id":0,"type":"stats"})", 0, next_stats);
            }
            next_stats += stats_every_us;
          }
          if (now_us() - start > (seconds + 60.0) * 1e6) break;
        }
        check(client.drain(now_us() + kReplyTimeoutUs, on_reply), "live: replies missing");
        check(all_resolved(), "live: an epoch never became visible");
      } catch (const std::exception& e) {
        check(false, std::string("live: reader failed: ") + e.what());
      }
    });

    const auto record_epoch = [&](std::uint64_t epoch, double due, double t0, double t1) {
      const std::lock_guard<std::mutex> lock(mutex);
      records.push_back(EpochRecord{epoch, due, t0, t1});
    };
    for (std::size_t pass = 0; pass < passes_in(seconds); ++pass) {
      const std::size_t k = pass % stream_count;
      const std::vector<data::Sample>& samples = streams[k].samples();
      current_stream.store(k);
      ingest::IngestConfig config;
      config.model = kModel;
      config.volume = volume;
      config.rem = rem_config(sizes);
      config.epoch_samples = epoch_samples;
      config.cache_bytes = kCacheBytes;
      config.server = &server->server();
      config.map = "rem";
      ingest::IngestPipeline pipeline(config);
      std::vector<std::string> snapshots;  // Every epoch's REMSNAP1...
      std::vector<std::string> deltas;     // ...and its REMDELT1 ("" for full).
      const auto keep_epoch = [&](bool full_epoch, double seconds_in_call) {
        snapshots.push_back(pipeline.latest_snapshot_bytes());
        deltas.push_back(pipeline.latest_delta_bytes());
        (full_epoch ? out.epoch_full_s : out.epoch_delta_s).push_back(seconds_in_call);
        ++out.epochs;
      };
      const double pass_start = now_us() + 1000.0;
      double due = pass_start;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        due = pass_start + 1e6 * static_cast<double>(i) / sample_rate;
        std::this_thread::sleep_until(at_us(due));
        const std::uint64_t before = pipeline.epoch();
        const double t0 = now_us();
        {
          const Scope span("ingest.push");
          pipeline.push(samples[i]);
        }
        const double t1 = now_us();
        out.push_late_ms.push_back((t0 - due) / 1e3);
        out.busy_s += (t1 - t0) / 1e6;
        if (pipeline.epoch() != before) {
          record_epoch(pipeline.epoch(), due, t0, t1);
          keep_epoch(before == 0, (t1 - t0) / 1e6);
        } else {
          out.push_us.push_back(t1 - t0);
        }
      }
      const std::uint64_t before = pipeline.epoch();
      const double t0 = now_us();
      std::optional<ingest::EpochInfo> info;
      {
        const Scope span("ingest.flush");
        info = pipeline.flush();
      }
      const double t1 = now_us();
      out.busy_s += (t1 - t0) / 1e6;
      out.pushed += samples.size();
      if (info.has_value()) {
        record_epoch(info->epoch, due, t0, t1);
        keep_epoch(before == 0, (t1 - t0) / 1e6);
      }
      if (out.final_bytes.size() <= k) {
        out.final_bytes.push_back(pipeline.latest_snapshot_bytes());
      } else {
        check(pipeline.latest_snapshot_bytes() == out.final_bytes[k],
              "live: a replayed stream gave a different final epoch");
      }
      for (const ingest::EpochInfo& e : pipeline.history()) {
        check(e.published, "live: epoch not published");
      }
      // Every delta replays onto its base to the full snapshot (after the
      // pass, so the checks never delay a push).
      for (std::size_t e = 1; e < snapshots.size(); ++e) {
        bool ok = false;
        try {
          const store::Snapshot base = load_bytes(snapshots[e - 1]);
          std::istringstream delta_in(deltas[e]);
          const store::SnapshotDelta delta = store::load_delta(delta_in);
          store::Snapshot next;
          {
            const Scope span("store.apply_delta");
            next = store::apply_delta(base, delta);
          }
          std::ostringstream out_bytes;
          store::save_snapshot(out_bytes, next);
          ok = out_bytes.str() == snapshots[e];
          if (traced) {
            const store::Snapshot full = load_bytes(snapshots[e]);
            const Scope span("store.make_delta");
            (void)store::make_delta(base, full, e, e + 1);
          }
        } catch (const std::exception&) {
        }
        check(ok, "live: apply_delta(prev, delta) differs from the full snapshot");
        out.delta_bytes.push_back(static_cast<double>(deltas[e].size()));
        out.delta_ratio.push_back(static_cast<double>(deltas[e].size()) /
                                  static_cast<double>(snapshots[e].size()));
      }
      std::this_thread::sleep_until(at_us(pass_start + pass_s(pass) * 1e6));
    }
    pushing_done.store(true);
    reader.join();
    tracer().set_enabled(false);
    return out;
  };

  // Each stream's final epoch must equal the one-shot batch build of the
  // stream (built here, after the phase, so it never competes with it).
  const auto settle = [&](Phase& p) {
    for (std::size_t k = 0; k < p.final_bytes.size(); ++k) {
      BuildFacts unused;
      const std::string batch =
          k == 0 ? first_reference : batch_snapshot(streams[k], volume, sizes, unused);
      check(p.final_bytes[k] == batch, "live: final epoch differs from the one-shot batch build");
    }
    p.final_bytes.clear();
  };

  const auto report = [&](const Phase& p) {
    const Quantile fresh_p50 = percentile(p.freshness_ms, 50);
    const Quantile fresh_tail = tail(p.freshness_ms);
    const Quantile query_p99 = percentile(p.query_us, 99);
    r.add_quantile("live.freshness_ms.p50", fresh_p50, "ms");
    r.add_quantile("live.freshness_ms.tail", fresh_tail, "ms");
    r.add_quantile("live.query_p99_us", query_p99, "us");
    r.add("live.ingest_capacity_per_s", static_cast<double>(p.pushed) / p.busy_s, "1/s");
    r.add("gen.late_ms.p99", percentile(p.late_ms, 99).value, "ms");
    r.gate("p50_ms", fresh_p50.value);
    r.gate("tail_ms", fresh_tail.value);
    r.gate("capacity_per_s", static_cast<double>(p.pushed) / p.busy_s);
  };

  if (!options.trace) {
    Phase plain = phase(options.seconds, false);
    settle(plain);
    report(plain);
  } else {
    Phase plain = phase(options.seconds / 2, false);
    settle(plain);
    report(plain);
    Phase traced = phase(options.seconds / 2, true);
    server->stop();
    settle(traced);
    tracer().set_enabled(true);
    time_fit_and_serial_build(streams[0], volume, sizes, width);
    const Replay rep = replay(first_reference, traced.query_lines);
    tracer().set_enabled(false);
    const std::vector<SpanRecord> spans = tracer().spans();
    add_batch_layers(r, spans, facts, first_reference.size(), width);
    add_serve_layers(r, rep, traced.client_us);
    r.add("store.make_delta_s", median(durations_s(spans, "store.make_delta")), "s");
    r.add("store.apply_delta_s", median(durations_s(spans, "store.apply_delta")), "s");
    r.add("store.delta_bytes", median(traced.delta_bytes), "bytes");
    r.add("store.delta_ratio", median(traced.delta_ratio), "ratio");
    r.add("ingest.push_us", median(traced.push_us), "us");
    r.add("ingest.epoch_full_s", median(traced.epoch_full_s), "s");
    r.add("ingest.epoch_delta_s", median(traced.epoch_delta_s), "s");
    r.add("ingest.publish_visible_ms", median(traced.visible_ms), "ms");
    r.add("ingest.epochs", static_cast<double>(traced.epochs), "count");
    r.add("ingest.push_late_ms.p99", percentile(traced.push_late_ms, 99).value, "ms");
    add_net_layers(r, server->server().stats());
    add_trace_layers(r, spans, "e2e.freshness", median(plain.freshness_ms),
                     median(traced.freshness_ms));
  }
  server->stop();
  check(server->error().empty(), "live: server loop failed: " + server->error());
  add_common(r, setup_s);
  return r;
}

}  // namespace remgen::bench
