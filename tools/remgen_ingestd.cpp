// remgen-ingestd — streaming ingestion daemon: tail sample files into live
// REM epochs and (optionally) serve them over the network as they land.
//
//   remgen-ingestd --input FILE[,FILE...] [--follow] [--serve] [--out-dir D]
//                  [--epoch-samples N] [--epoch-seconds T] [--no-deltas]
//                  [--model knn-onehot-x3-k16] [--env apartment|office]
//                  [--voxel 0.25] [--min-samples 16] [--map rem]
//                  [--bind A] [--port N] [--port-file FILE] [--cache-mb 64]
//                  [--threads N] [--poll-ms 200] [--log-level warn] [...]
//
// Inputs are tailed CSV or JSONL sample streams (format guessed from the
// extension; a canonical CSV header line is skipped). Files are drained in
// the order given and each file boundary is an explicit epoch flush, so
// feeding a dataset in two halves yields two epochs whose final snapshot is
// byte-identical to the one-shot batch build over the whole file — the
// determinism contract tests and CI pin. Malformed rows are rejected with
// line-numbered reasons (ingest.rejected_rows) and never enter the live
// dataset.
//
// Epochs: every trigger (--epoch-samples / --epoch-seconds of sample time /
// end-of-input flush) refits the model, re-rasterises the REM, and emits a
// versioned snapshot into --out-dir — epoch 1 as a full REMSNAP1, later
// epochs as CRC-checked REMDELT1 deltas that carry only the inserted rows;
// store::load_delta / apply_delta replays one onto its base by refitting
// the base's model on the merged rows and re-sweeping its grid. With
// --serve, each epoch is also hot-published into the embedded net::Server
// with zero dropped in-flight requests; the current epoch id is visible in
// the "stats" admin response and the net.map.<name>.epoch gauge. With
// --follow the daemon keeps polling for appended rows until SIGTERM/SIGINT;
// without it, ingestion stops at end-of-input (and --serve keeps serving
// the final epoch until a signal arrives).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/config.hpp"
#include "geom/floorplan.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/source.hpp"
#include "ml/model_zoo.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "util/args.hpp"
#include "util/file.hpp"
#include "util/log.hpp"

namespace {

using namespace remgen;

int usage() {
  std::fprintf(
      stderr,
      "remgen-ingestd — streaming ingestion into live REM epochs\n\n"
      "  --input LIST          comma-separated CSV/JSONL sample files, drained in\n"
      "                        order; each file boundary flushes an epoch (required)\n"
      "  --follow              keep tailing the inputs for appended rows until\n"
      "                        SIGTERM/SIGINT (default: stop at end of input)\n"
      "  --poll-ms N           tail poll interval with --follow (default 200)\n"
      "  --epoch-samples N     also cut an epoch every N accepted samples\n"
      "  --epoch-seconds T     also cut an epoch every T seconds of sample time\n"
      "  --no-deltas           emit every epoch as a full snapshot (no REMDELT1)\n"
      "  --out-dir DIR         write epoch-N.snap / delta-N.delta files to DIR\n"
      "  --model NAME          estimator refitted each epoch (default knn-onehot-x3-k16)\n"
      "  --env NAME            apartment|office raster volume (default apartment)\n"
      "  --voxel M             raster voxel edge in metres (default 0.25)\n"
      "  --min-samples N       per-MAC sample gate (default 16)\n"
      "serving (optional):\n"
      "  --serve               embed a net::Server and hot-publish each epoch\n"
      "  --map NAME            map name published under (default rem)\n"
      "  --bind ADDR           listen address (default 127.0.0.1)\n"
      "  --port N              listen port (default 0 = ephemeral)\n"
      "  --port-file FILE      write the bound port to FILE once listening\n"
      "  --cache-mb N          result-cache budget per published engine (default 64)\n"
      "  --threads N           execution width for epoch builds and request rounds\n"
      "telemetry:\n"
      "  --log-level L         trace|debug|info|warn|error|off (default warn)\n"
      "  --metrics-out FILE    write a JSON metrics snapshot on exit\n"
      "  --metrics-prom FILE   write Prometheus text exposition on exit\n"
      "  --trace-out FILE      write Chrome trace_event JSON on exit\n"
      "  --profile-out FILE    write the phase profile as JSON on exit\n");
  return 2;
}

std::atomic<bool> g_stop{false};
net::Server* g_server = nullptr;

void handle_signal(int) {
  g_stop.store(true);
  if (g_server != nullptr) g_server->request_shutdown();
}

ml::ModelKind model_by_name(const std::string& name) {
  if (const std::optional<ml::ModelKind> kind = ml::model_kind_from_name(name)) return *kind;
  std::fprintf(stderr, "unknown model '%s'; available:", name.c_str());
  for (const ml::ModelKind kind : ml::all_model_kinds(true)) {
    std::fprintf(stderr, " %s", ml::model_kind_name(kind));
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

void print_epoch(const ingest::EpochInfo& info) {
  std::printf("epoch %llu: %zu rows (%zu below gate), snapshot %zu B",
              static_cast<unsigned long long>(info.epoch), info.rows, info.dropped_rows,
              info.snapshot_bytes);
  if (info.delta) std::printf(", delta %zu B", info.delta_bytes);
  if (!info.snapshot_path.empty()) std::printf(" -> %s", info.snapshot_path.c_str());
  if (!info.delta_path.empty()) std::printf(" -> %s", info.delta_path.c_str());
  if (info.published) std::printf(" [published]");
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string> value_keys{
      "input",      "poll-ms",      "epoch-samples", "epoch-seconds", "out-dir",
      "model",      "env",          "voxel",         "min-samples",   "map",
      "bind",       "port",         "port-file",     "cache-mb",      "threads",
      "log-level",  "metrics-out",  "metrics-prom",  "trace-out",     "profile-out"};
  const std::set<std::string> flag_keys{"help", "follow", "serve", "no-deltas"};
  std::string error;
  const auto args = util::Args::parse(argc, argv, value_keys, flag_keys, &error);
  if (!args) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return usage();
  }
  if (args->flag("help") || !args->has("input")) return usage();

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
  obs::start_telemetry(*args, {.always_on = true});

  const long epoch_samples = args->value_int("epoch-samples", 0);
  const double epoch_seconds = args->value_double("epoch-seconds", 0.0);
  const double voxel = args->value_double("voxel", 0.25);
  const long min_samples = args->value_int("min-samples", 16);
  const long cache_mb = args->value_int("cache-mb", 64);
  const long port = args->value_int("port", 0);
  const long poll_ms = args->value_int("poll-ms", 200);
  if (epoch_samples < 0 || epoch_seconds < 0 || voxel <= 0 || min_samples < 1 ||
      cache_mb < 0 || port < 0 || port > 65535 || poll_ms < 1) {
    std::fprintf(stderr, "error: invalid --epoch-*/--voxel/--min-samples/--cache-mb/"
                         "--port/--poll-ms value\n");
    return 2;
  }

  const bool serve = args->flag("serve");
  net::ServerConfig server_config;
  server_config.bind_address = args->value("bind", "127.0.0.1");
  server_config.port = static_cast<std::uint16_t>(port);
  server_config.cache_bytes = static_cast<std::size_t>(cache_mb) * 1024 * 1024;
  net::Server server(server_config);

  ingest::IngestConfig config;
  config.model = model_by_name(args->value("model", "knn-onehot-x3-k16"));
  if (args->value("env", "apartment") == "office") {
    config.volume = geom::make_office_model().scan_volume;
  }
  config.rem.voxel_m = voxel;
  config.rem.min_samples_per_mac = static_cast<std::size_t>(min_samples);
  config.epoch_samples = static_cast<std::size_t>(epoch_samples);
  config.epoch_sim_seconds = epoch_seconds;
  config.emit_deltas = !args->flag("no-deltas");
  config.out_dir = args->value("out-dir");
  config.cache_bytes = server_config.cache_bytes;
  config.server = serve ? &server : nullptr;
  config.map = args->value("map", "rem");
  ingest::IngestPipeline pipeline(config);

  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::vector<ingest::FileTailSource> sources;
  for (const std::string& path : util::split_list(args->value("input"))) {
    sources.emplace_back(path, ingest::stream_format_for_path(path));
  }
  if (sources.empty()) return usage();

  // Drain pass: each input in order, flushing an epoch at every file
  // boundary — the stream-vs-batch byte-identity anchor.
  const std::size_t epochs_before = pipeline.history().size();
  for (ingest::FileTailSource& source : sources) {
    while (source.poll(pipeline) > 0 && !g_stop.load()) {
    }
    if (const auto info = pipeline.flush()) print_epoch(*info);
    if (g_stop.load()) break;
  }
  if (pipeline.history().size() == epochs_before && !args->flag("follow")) {
    std::fprintf(stderr, "error: no epoch built (no input rows, or no MAC reached the "
                         "%ld-sample gate)\n", min_samples);
    if (!serve) return 1;
  }

  std::thread server_thread;
  int exit_code = 0;
  if (serve) {
    std::uint16_t bound = 0;
    try {
      bound = server.bind_and_listen();  // Drains the pre-bind epoch publish.
      if (const std::string path = args->value("port-file"); !path.empty()) {
        util::write_file(path, std::to_string(bound) + "\n");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("listening on %s:%u (map '%s', epoch %llu)\n",
                server_config.bind_address.c_str(), static_cast<unsigned>(bound),
                config.map.c_str(), static_cast<unsigned long long>(pipeline.epoch()));
    std::fflush(stdout);
    g_server = &server;
    server_thread = std::thread([&server, &exit_code] {
      try {
        server.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        exit_code = 1;
        g_stop.store(true);
      }
    });
  }

  if (args->flag("follow")) {
    // Tail loop: poll every input for appended rows; count/time triggers cut
    // epochs mid-file, and a quiet interval costs one poll round per source.
    while (!g_stop.load()) {
      std::size_t accepted = 0;
      for (ingest::FileTailSource& source : sources) accepted += source.poll(pipeline);
      if (accepted == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      }
    }
    if (const auto info = pipeline.flush()) print_epoch(*info);
  }

  if (serve) {
    if (!args->flag("follow")) {
      // Ingestion is done; keep serving the final epoch until a signal.
      while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      }
    }
    server.request_shutdown();
    server_thread.join();
    g_server = nullptr;
  }

  std::uint64_t rejected = 0;
  std::uint64_t lines = 0;
  for (const ingest::FileTailSource& source : sources) {
    rejected += source.stats().rejected;
    lines += source.stats().lines;
  }
  std::fprintf(stderr,
               "ingested: %zu samples over %llu epochs (%llu lines, %llu rejected)\n",
               pipeline.samples(), static_cast<unsigned long long>(pipeline.epoch()),
               static_cast<unsigned long long>(lines),
               static_cast<unsigned long long>(rejected));
  if (serve) {
    std::fprintf(stderr, "served: %llu requests, %llu responses, %llu publish swaps\n",
                 static_cast<unsigned long long>(server.stats().requests),
                 static_cast<unsigned long long>(server.stats().responses),
                 static_cast<unsigned long long>(server.stats().publish_swaps));
  }

  if (!obs::finish_telemetry(*args)) exit_code = exit_code == 0 ? 1 : exit_code;
  return exit_code;
}
