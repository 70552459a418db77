// remgen-serve — concurrent query serving over a baked REM snapshot.
//
//   remgen-serve --snapshot rem.snap [--requests queries.jsonl]
//                [--responses-out responses.jsonl] [--threads N]
//                [--cache-mb 64] [--log-level warn] [--metrics-out FILE]
//                [--metrics-prom FILE] [--trace-out FILE]
//
// Requests are JSONL (one JSON object per line; see src/serve/request.hpp
// for the wire format), read from --requests or stdin ("-"). Responses are
// JSONL on --responses-out or stdout, ordered by request id — byte-identical
// at every --threads value. The process exits non-zero when the snapshot
// cannot be loaded (missing file, bad magic, wrong version, CRC mismatch),
// so corrupted stores fail loudly instead of serving garbage.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "exec/config.hpp"
#include "obs/export.hpp"
#include "serve/engine.hpp"
#include "store/snapshot.hpp"
#include "util/args.hpp"
#include "util/log.hpp"

namespace {

using namespace remgen;

int usage() {
  std::fprintf(stderr,
               "remgen-serve — query serving over a REM snapshot\n\n"
               "  --snapshot FILE       snapshot written by `remgen rem --snapshot-out` "
               "(required)\n"
               "  --requests FILE       JSONL request stream; '-' = stdin (default)\n"
               "  --responses-out FILE  JSONL response stream; '-' = stdout (default)\n"
               "  --threads N           worker threads (default: REMGEN_THREADS env, then\n"
               "                        hardware concurrency); responses are identical at\n"
               "                        every width\n"
               "  --cache-mb N          result cache budget in MiB (default 64; 0 disables)\n"
               "  --log-level L         trace|debug|info|warn|error|off (default warn)\n"
               "  --metrics-out FILE    write a JSON metrics snapshot after the run\n"
               "  --metrics-prom FILE   write Prometheus text exposition after the run\n"
               "  --trace-out FILE      write Chrome trace_event JSON after the run\n"
               "  --profile-out FILE    write the phase profile + Amdahl breakdown as\n"
               "                        JSON after the run (inspect with remgen-profile)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string> value_keys{"snapshot",    "requests",  "responses-out",
                                         "threads",     "cache-mb",  "log-level",
                                         "metrics-out", "metrics-prom", "trace-out",
                                         "profile-out"};
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
  obs::start_telemetry(*args);

  const long cache_mb = args->value_int("cache-mb", 64);
  if (cache_mb < 0) {
    std::fprintf(stderr, "--cache-mb must be >= 0\n");
    return 2;
  }

  std::unique_ptr<serve::QueryEngine> engine;
  try {
    store::Snapshot snapshot = store::load_snapshot_file(args->value("snapshot"));
    engine = std::make_unique<serve::QueryEngine>(
        std::move(snapshot), static_cast<std::size_t>(cache_mb) * 1024 * 1024);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const std::string requests_path = args->value("requests", "-");
  const std::string responses_path = args->value("responses-out", "-");

  std::ifstream request_file;
  if (requests_path != "-") {
    request_file.open(requests_path);
    if (!request_file) {
      std::fprintf(stderr, "error: cannot open requests file '%s'\n", requests_path.c_str());
      return 1;
    }
  }
  std::istream& in = requests_path == "-" ? std::cin : request_file;

  // Responses are buffered and written in one pass so a failing open is
  // detected before any request work, and stdout stays line-clean.
  std::ofstream response_file;
  if (responses_path != "-") {
    response_file.open(responses_path);
    if (!response_file) {
      std::fprintf(stderr, "error: cannot open responses file '%s'\n", responses_path.c_str());
      return 1;
    }
  }
  std::ostream& out = responses_path == "-" ? std::cout : response_file;

  const serve::ReplayStats stats = engine->replay_jsonl(in, out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: writing responses failed\n");
    return 1;
  }

  std::fprintf(stderr,
               "served %zu requests (%zu errors) in %.3fs — %.0f qps, "
               "latency p50 %.1fus p99 %.1fus p99.9 %.1fus, "
               "cache %llu hits / %llu misses\n",
               stats.requests, stats.errors, stats.wall_seconds, stats.qps,
               stats.latency_us.p50, stats.latency_us.p99, stats.latency_us.p999,
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_misses));

  if (!obs::finish_telemetry(*args)) return 1;
  return 0;
}
