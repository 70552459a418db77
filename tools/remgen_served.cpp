// remgen-served — long-running network query server over REM snapshots.
//
//   remgen-served --snapshot [NAME=]FILE[,NAME=FILE...] [--port N] [--bind A]
//                 [--port-file FILE] [--threads N] [--cache-mb 64]
//                 [--max-inflight N] [--max-batch N] [--max-connections N]
//                 [--http-metrics PORT] [--slow-log FILE] [--slow-ms N]
//                 [--log-level warn] [--metrics-out FILE] [...]
//
// Speaks the serve JSONL protocol (src/serve/request.hpp) over TCP, one JSON
// object per line, responses per connection in request order. Multiple
// snapshots are served as named maps (select with a "map" request field; the
// first name is the default). Admin requests: {"id":N,"type":"stats"},
// {"id":N,"type":"metrics"} (in-flight Prometheus scrape) and
// {"id":N,"type":"reload","snapshot":"path"[,"map":"m"]} — reload loads the
// new snapshot in the background and hot-swaps it with zero dropped
// in-flight requests. The live observability plane (rolling-window tails,
// lifecycle histograms, slow-request log) is always on; --http-metrics adds
// a plain-HTTP GET /metrics scrape endpoint in the same event loop.
// SIGTERM/SIGINT drain gracefully: admitted requests finish, buffers flush,
// then the process exits 0. Telemetry files are exported even when the drain
// fails, so a crashed run still leaves its metrics behind.
#include <csignal>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "exec/config.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "store/snapshot.hpp"
#include "util/args.hpp"
#include "util/log.hpp"

namespace {

using namespace remgen;

int usage() {
  std::fprintf(stderr,
               "remgen-served — network query serving over REM snapshots\n\n"
               "  --snapshot LIST       comma-separated [name=]file snapshots; the first\n"
               "                        entry is the default map (required)\n"
               "  --bind ADDR           listen address (default 127.0.0.1)\n"
               "  --port N              listen port (default 0 = ephemeral)\n"
               "  --port-file FILE      write the bound port to FILE once listening\n"
               "  --http-metrics N      serve Prometheus text on HTTP GET /metrics at\n"
               "                        port N (0 = ephemeral; disabled when absent)\n"
               "  --http-port-file FILE write the bound HTTP metrics port to FILE\n"
               "  --slow-log FILE       append slow-request records as JSONL to FILE\n"
               "  --slow-ms N           slow threshold on total latency in ms\n"
               "                        (default 100; 0 logs every request)\n"
               "  --slow-sample N       log every Nth request over the threshold (default 1)\n"
               "  --threads N           execution width for request rounds (default:\n"
               "                        REMGEN_THREADS env, then hardware concurrency)\n"
               "  --cache-mb N          per-map result cache budget in MiB (default 64)\n"
               "  --max-inflight N      admitted-request bound; beyond it requests get\n"
               "                        an ok=false overload response (default 4096)\n"
               "  --max-batch N         requests per execution round (default 512)\n"
               "  --max-connections N   concurrent connection cap (default 1024)\n"
               "  --log-level L         trace|debug|info|warn|error|off (default warn)\n"
               "  --metrics-out FILE    write a JSON metrics snapshot after the drain\n"
               "  --metrics-prom FILE   write Prometheus text exposition after the drain\n"
               "  --trace-out FILE      write Chrome trace_event JSON after the drain\n"
               "  --profile-out FILE    write the phase profile as JSON after the drain\n");
  return 2;
}

net::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

bool write_port_file(const std::string& path, std::uint16_t port) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write port file '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return true;
}

/// Reports dropped spans / task events on stderr so a truncated trace is
/// visible.
void report_dropped_telemetry() {
  const std::uint64_t dropped_spans = obs::trace().dropped();
  const std::uint64_t dropped_tasks = obs::task_events_dropped();
  if (dropped_spans > 0 || dropped_tasks > 0) {
    std::fprintf(stderr, "telemetry: dropped %llu span(s), %llu task event(s)\n",
                 static_cast<unsigned long long>(dropped_spans),
                 static_cast<unsigned long long>(dropped_tasks));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string> value_keys{
      "snapshot",     "bind",        "port",         "port-file",       "threads",
      "cache-mb",     "max-inflight", "max-batch",   "max-connections", "log-level",
      "metrics-out",  "metrics-prom", "trace-out",   "profile-out",     "http-metrics",
      "http-port-file", "slow-log",   "slow-ms",     "slow-sample"};
  const std::set<std::string> flag_keys{"help"};
  std::string error;
  const auto args = util::Args::parse(argc, argv, value_keys, flag_keys, &error);
  if (!args) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return usage();
  }
  if (args->flag("help") || !args->has("snapshot")) return usage();

  if (args->has("threads")) {
    const long threads = args->value_int("threads", 0);
    if (threads <= 0) {
      std::fprintf(stderr, "--threads needs a positive integer\n");
      return 2;
    }
    exec::set_thread_count(static_cast<std::size_t>(threads));
  }
  if (args->has("log-level")) {
    if (const auto level = util::log_level_from_string(args->value("log-level"))) {
      util::set_log_level(*level);
    } else {
      std::fprintf(stderr, "unknown log level '%s'\n", args->value("log-level").c_str());
      return 2;
    }
  }
  // The live plane (lifecycle histograms, scrape endpoints) is always on: a
  // server you cannot observe is not a server you can run.
  obs::start_telemetry(*args, {.always_on = true});

  const long cache_mb = args->value_int("cache-mb", 64);
  const long port = args->value_int("port", 0);
  const long max_inflight = args->value_int("max-inflight", 4096);
  const long max_batch = args->value_int("max-batch", 512);
  const long max_connections = args->value_int("max-connections", 1024);
  const long http_metrics = args->value_int("http-metrics", -1);
  const double slow_ms = args->value_double("slow-ms", 100.0);
  const long slow_sample = args->value_int("slow-sample", 1);
  if (cache_mb < 0 || port < 0 || port > 65535 || max_inflight < 1 || max_batch < 1 ||
      max_connections < 1 || http_metrics > 65535 || slow_ms < 0 || slow_sample < 1) {
    std::fprintf(stderr, "error: invalid --cache-mb/--port/--max-*/--http-metrics/"
                         "--slow-* value\n");
    return 2;
  }

  net::ServerConfig config;
  config.bind_address = args->value("bind", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(port);
  config.max_inflight = static_cast<std::size_t>(max_inflight);
  config.max_batch = static_cast<std::size_t>(max_batch);
  config.max_connections = static_cast<std::size_t>(max_connections);
  config.cache_bytes = static_cast<std::size_t>(cache_mb) * 1024 * 1024;
  config.http_metrics_port = args->has("http-metrics") ? static_cast<int>(http_metrics) : -1;
  config.slow_log_path = args->value("slow-log");
  config.slow_ms = slow_ms;
  config.slow_log_sample = static_cast<std::size_t>(slow_sample);
  net::Server server(config);

  // --snapshot a.snap,floor2=b.snap: bare paths get map name "default" (first
  // bare path) or their position; explicit NAME=PATH names the map.
  std::size_t loaded = 0;
  for (const std::string& entry : util::split_list(args->value("snapshot"))) {
    std::string name;
    std::string path = entry;
    if (const std::size_t eq = entry.find('='); eq != std::string::npos) {
      name = entry.substr(0, eq);
      path = entry.substr(eq + 1);
    } else {
      name = loaded == 0 ? "default" : "map" + std::to_string(loaded);
    }
    if (name.empty() || path.empty()) {
      std::fprintf(stderr, "error: malformed --snapshot entry '%s'\n", entry.c_str());
      return 2;
    }
    try {
      store::Snapshot snapshot = store::load_snapshot_file(path);
      server.add_engine(name, std::make_shared<const serve::QueryEngine>(
                                  std::move(snapshot), config.cache_bytes));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    ++loaded;
  }

  std::uint16_t bound = 0;
  try {
    bound = server.bind_and_listen();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (const std::string port_file = args->value("port-file"); !port_file.empty()) {
    if (!write_port_file(port_file, bound)) return 1;
  }
  if (const std::string http_port_file = args->value("http-port-file");
      !http_port_file.empty()) {
    if (!write_port_file(http_port_file, server.http_port())) return 1;
  }
  std::printf("listening on %s:%u\n", config.bind_address.c_str(), static_cast<unsigned>(bound));
  if (server.http_port() != 0) {
    std::printf("metrics on http://%s:%u/metrics\n", config.bind_address.c_str(),
                static_cast<unsigned>(server.http_port()));
  }
  std::fflush(stdout);

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  int exit_code = 0;
  try {
    server.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    exit_code = 1;
  }
  g_server = nullptr;

  const net::ServerStats& stats = server.stats();
  std::fprintf(stderr,
               "drained: %llu connections, %llu requests, %llu responses, "
               "%llu parse errors, %llu overloads, %llu reload swaps (%llu failed), "
               "%llu scrapes, %llu slow-logged, %llu stalled rounds\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses),
               static_cast<unsigned long long>(stats.parse_errors),
               static_cast<unsigned long long>(stats.overload_rejections),
               static_cast<unsigned long long>(stats.reload_swaps),
               static_cast<unsigned long long>(stats.reload_failures),
               static_cast<unsigned long long>(stats.metrics_scrapes),
               static_cast<unsigned long long>(stats.slow_logged),
               static_cast<unsigned long long>(stats.stalled_rounds));

  if (!obs::finish_telemetry(*args)) exit_code = exit_code == 0 ? 1 : exit_code;
  report_dropped_telemetry();
  return exit_code;
}
