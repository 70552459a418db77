// remgen_bench: runs one workload of the end-to-end benchmark.
//
//   remgen_bench --workload survey|query_mix|live --seed N --seconds S
//                --trace 0|1 [--smoke] [--out results.json]
//                [--spans spans.json] [--source-id ID]
//
// Prints every metric by name and unit, writes them with the machine
// fingerprint to --out, and (traced runs) the spans to --spans. Exits 1
// when any correctness check failed, 2 on bad arguments. run.py builds this
// program and turns its results into the benchmark's one-line summary.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "exec/config.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace remgen;

int usage(const char* why) {
  std::fprintf(stderr,
               "remgen_bench: %s\n"
               "usage: remgen_bench --workload survey|query_mix|live --seed N --seconds S\n"
               "                    --trace 0|1 [--smoke] [--out FILE] [--spans FILE]\n"
               "                    [--source-id ID]\n",
               why);
  return 2;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return exec::hardware_threads();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options;
  std::string out_path;
  std::string spans_path;
  std::string source_id = "unknown";
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
        options.trace = t == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--out") {
        out_path = value();
      } else if (arg == "--spans") {
        spans_path = value();
      } else if (arg == "--source-id") {
        source_id = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (options.workload != "survey" && options.workload != "query_mix" &&
      options.workload != "live") {
    return usage("--workload must be survey, query_mix or live");
  }
  if (!have_trace || !(options.seconds > 0.0) || options.seconds > 600.0) {
    return usage("--trace and a --seconds in (0, 600] are required");
  }

  util::set_log_level(util::LogLevel::Warn);
  options.nproc = usable_cpus();
  const std::size_t width = bench::exec_width(options.workload, options.nproc);
  exec::set_thread_count(width);

  bench::Result result;
  try {
    if (options.workload == "survey") {
      result = bench::run_survey(options);
    } else if (options.workload == "query_mix") {
      result = bench::run_query_mix(options);
    } else {
      result = bench::run_live(options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remgen_bench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  obs::Json::Object fingerprint{
      {"nproc", obs::Json(static_cast<std::int64_t>(options.nproc))},
      {"cpu_model", obs::Json(cpu_model())},
      {"compiler", obs::Json(REMGEN_BENCH_COMPILER)},
      {"build_type", obs::Json(REMGEN_BENCH_BUILD_TYPE)},
      {"commit", obs::Json(source_id)},
      {"exec_width", obs::Json(static_cast<std::int64_t>(width))},
      {"workload", obs::Json(options.workload)},
      {"seed", obs::Json(static_cast<std::int64_t>(options.seed))},
  };
  std::printf("remgen-bench %s seed=%llu trace=%d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              options.smoke ? " (smoke)" : "");
  std::printf("fingerprint %s\n", obs::Json(fingerprint).dump().c_str());
  obs::Json::Object metrics;
  for (const bench::Metric& m : result.metrics()) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    metrics[m.name] =
        obs::Json(obs::Json::Object{{"value", obs::Json(m.value)}, {"unit", obs::Json(m.unit)}});
  }
  obs::Json::Object gated;
  for (const auto& [name, value] : result.gated()) gated[name] = obs::Json(value);
  obs::Json::Array failures;
  for (const std::string& f : result.failures()) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
    failures.push_back(obs::Json(f));
  }
  std::printf("  attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()));
  std::fflush(stdout);

  bool written = true;
  if (!out_path.empty()) {
    const obs::Json doc(obs::Json::Object{
        {"fingerprint", obs::Json(std::move(fingerprint))},
        {"trace", obs::Json(options.trace)},
        {"smoke", obs::Json(options.smoke)},
        {"attempted", obs::Json(result.attempted())},
        {"failed", obs::Json(result.failed())},
        {"failures", obs::Json(std::move(failures))},
        {"metrics", obs::Json(std::move(metrics))},
        {"gated", obs::Json(std::move(gated))},
    });
    std::ofstream file(out_path);
    file << doc.dump(2) << '\n';
    written = static_cast<bool>(file);
  }
  if (!spans_path.empty() && options.trace) {
    written = bench::tracer().write_json(spans_path) && written;
  }
  if (!written) {
    std::fprintf(stderr, "remgen_bench: cannot write results\n");
    return 1;
  }
  return result.failed() == 0 ? 0 : 1;
}
