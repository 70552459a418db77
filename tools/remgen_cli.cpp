// remgen — command-line front end to the toolchain.
//
//   remgen campaign  --seed 2022 --grid 6x4x3 --uavs 2 --out dataset.csv
//                    [--radio-on] [--optimize-route] [--adaptive-legs]
//                    [--positioning uwb|lighthouse] [--receivers wifi,ble]
//                    [--fault-profile none|lossy|flaky-scanner|uwb-degraded|
//                     brownout|harsh|<comma list>] [--fault-seed N]
//   remgen info      --in dataset.csv
//   remgen evaluate  --in dataset.csv [--model all|<name>] [--split 0.75]
//                    [--min-samples 16] [--seed 99]
//   remgen rem       --in dataset.csv --out rem.csv [--model <name>]
//                    [--voxel 0.25] [--min-samples 16] [--snapshot-out rem.snap]
//   remgen query     --in dataset.csv --at x,y,z [--model <name>] [--top 5]
//   remgen drift     --baseline old.csv --probe new.csv [--model <name>]
//
// Every command that consumes a dataset reads the CSV produced by
// `remgen campaign` (or by the library's Dataset::write_csv).
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "core/drift.hpp"
#include "core/health_report.hpp"
#include "core/rem_builder.hpp"
#include "exec/config.hpp"
#include "flightlog/flightlog.hpp"
#include "mission/campaign.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "obs/export.hpp"
#include "obs/scope.hpp"
#include "radio/scenario.hpp"
#include "store/snapshot.hpp"
#include "util/args.hpp"
#include "util/log.hpp"

namespace {

using namespace remgen;

int usage() {
  std::printf(
      "remgen — autonomous 3D indoor radio environmental maps\n\n"
      "commands:\n"
      "  campaign  run the two-UAV measurement campaign, write the dataset CSV\n"
      "  info      dataset statistics (the paper's Section III-A numbers)\n"
      "  evaluate  train/test RMSE for the estimator suite (Figure 8)\n"
      "  rem       build the REM raster and write it as CSV\n"
      "  query     predict per-transmitter RSS at a point\n"
      "  drift     compare a probe dataset against a baseline REM\n\n"
      "snapshot store (campaign, rem):\n"
      "  --snapshot-out FILE  write dataset+REM+model as a binary snapshot that\n"
      "                       remgen-serve loads for concurrent query serving\n\n"
      "execution (every command):\n"
      "  --threads N          parallel execution width (default: REMGEN_THREADS env,\n"
      "                       then hardware concurrency; 1 = sequential; output is\n"
      "                       identical at every width)\n\n"
      "fault injection (campaign):\n"
      "  --fault-profile P    inject faults: none, lossy, flaky-scanner, uwb-degraded,\n"
      "                       brownout, harsh, or a comma list (merged, harsher wins);\n"
      "                       also arms scan retries/backoff/watchdog + rescue missions\n"
      "  --fault-seed N       seed for the injected fault streams (default 0)\n\n"
      "telemetry (every command):\n"
      "  --log-level trace|debug|info|warn|error|off   stderr log filter (default warn)\n"
      "  --metrics-out FILE   enable telemetry, write a JSON metrics snapshot\n"
      "  --metrics-prom FILE  enable telemetry, write Prometheus text exposition\n"
      "  --trace-out FILE     enable telemetry, write Chrome trace_event JSON\n"
      "                       (open in chrome://tracing or Perfetto)\n"
      "  --profile-out FILE   enable the phase profiler, write the per-phase\n"
      "                       timing tree + Amdahl breakdown as JSON (inspect\n"
      "                       with remgen-profile)\n\n"
      "flight recorder (campaign):\n"
      "  --flightlog-out FILE enable the flight recorder, write the event log as\n"
      "                       JSONL (inspect with remgen-flightlog)\n"
      "  --report-out FILE    enable recorder+telemetry, write a markdown campaign\n"
      "                       health report after the run\n\n"
      "run `remgen <command> --help` semantics: see the header of tools/remgen_cli.cpp\n");
  return 2;
}

ml::ModelKind model_by_name(const std::string& name) {
  for (const ml::ModelKind kind : ml::all_model_kinds(true)) {
    if (name == ml::model_kind_name(kind)) return kind;
  }
  std::fprintf(stderr, "unknown model '%s'; available:", name.c_str());
  for (const ml::ModelKind kind : ml::all_model_kinds(true)) {
    std::fprintf(stderr, " %s", ml::model_kind_name(kind));
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

data::Dataset load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return data::Dataset::read_csv(in);
}

/// Writes the preprocessed dataset + baked REM + fitted model as a snapshot
/// for remgen-serve. Returns 0 on success, 1 on write failure.
int write_snapshot(const std::string& path, const data::Dataset& prepared,
                   std::optional<core::RadioEnvironmentMap> rem,
                   std::unique_ptr<ml::Estimator> model) {
  store::Snapshot snapshot;
  snapshot.dataset = prepared;
  snapshot.rem = std::move(rem);
  snapshot.model = std::move(model);
  try {
    store::save_snapshot_file(path, snapshot);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("snapshot written to %s\n", path.c_str());
  return 0;
}

geom::Aabb volume_for(const util::Args& args) {
  // The raster bounds of the REM; matches the scan volume of the chosen
  // environment.
  if (args.value("env", "apartment") == "office") {
    return geom::make_office_model().scan_volume;
  }
  return geom::Aabb({0, 0, 0}, {3.74, 3.20, 2.10});
}

int cmd_campaign(const util::Args& args) {
  util::Rng rng(static_cast<std::uint64_t>(args.value_int("seed", 2022)));
  const radio::Scenario scenario = args.value("env", "apartment") == "office"
                                       ? radio::Scenario::make_office(rng)
                                       : radio::Scenario::make_apartment(rng);

  mission::CampaignConfig config;
  const auto grid = util::split_list(args.value("grid", "6x4x3"), 'x');
  if (grid.size() == 3) {
    config.grid.nx = static_cast<std::size_t>(std::stoul(grid[0]));
    config.grid.ny = static_cast<std::size_t>(std::stoul(grid[1]));
    config.grid.nz = static_cast<std::size_t>(std::stoul(grid[2]));
  }
  config.uav_count = static_cast<std::size_t>(args.value_int("uavs", 2));
  config.mission.radio_off_during_scan = !args.flag("radio-on");
  config.mission.adaptive_leg_timing = args.flag("adaptive-legs");
  config.optimize_route = args.flag("optimize-route");
  if (args.value("positioning", "uwb") == "lighthouse") {
    config.positioning = mission::PositioningKind::Lighthouse;
  }
  config.receivers.clear();
  for (const std::string& r : util::split_list(args.value("receivers", "wifi"))) {
    config.receivers.push_back(r == "ble" ? mission::ReceiverKind::Ble
                                          : mission::ReceiverKind::Wifi);
  }
  const std::string fault_profile = args.value("fault-profile", "none");
  const auto plan = fault::make_fault_plan(
      fault_profile, static_cast<std::uint64_t>(args.value_int("fault-seed", 0)));
  if (!plan) {
    std::fprintf(stderr, "unknown fault profile '%s'; available:", fault_profile.c_str());
    for (const std::string& name : fault::fault_profile_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, " (or a comma list)\n");
    return 2;
  }
  config.faults = *plan;
  if (config.faults.enabled()) {
    // A faulted campaign gets the resilience knobs the fault layer is built
    // for: more retries with backoff, a watchdog for stalled scans.
    config.mission.scan_retries = 3;
    config.mission.scan_retry_backoff_s = 0.2;
    config.mission.scan_watchdog_s = 15.0;
  }

  const mission::CampaignResult result = mission::run_campaign(scenario, config, rng);
  for (const mission::UavMissionStats& s : result.uav_stats) {
    std::printf("UAV %c: %zu waypoints, %zu scans, %zu samples, active %dm%02ds%s\n",
                static_cast<char>('A' + s.uav_id), s.waypoints_commanded, s.scans_completed,
                s.samples_collected, static_cast<int>(s.active_time_s) / 60,
                static_cast<int>(s.active_time_s) % 60,
                s.aborted_on_battery ? " (battery abort)" : "");
  }
  std::size_t covered = 0;
  std::size_t rescued = 0;
  for (const mission::WaypointCoverage& c : result.coverage) {
    if (c.covered) ++covered;
    if (c.rescued) ++rescued;
  }
  std::printf("coverage: %zu/%zu waypoints", covered, result.coverage.size());
  if (rescued > 0) std::printf(" (%zu by rescue missions)", rescued);
  std::printf("\n");
  for (const mission::WaypointCoverage& c : result.uncovered_waypoints()) {
    std::printf("  uncovered: waypoint %zu of UAV %c at (%.2f, %.2f, %.2f)\n",
                c.waypoint_index, static_cast<char>('A' + static_cast<int>(c.uav)),
                c.position.x, c.position.y, c.position.z);
  }
  const std::string out = args.value("out", "dataset.csv");
  std::ofstream file(out);
  result.dataset.write_csv(file);
  std::printf("%zu samples written to %s\n", result.dataset.size(), out.c_str());

  int status = 0;
  if (const std::string flight_out = args.value("flightlog-out"); !flight_out.empty()) {
    if (flightlog::export_jsonl_file(flight_out)) {
      std::printf("flight log (%zu events) written to %s\n", flightlog::recorder().size(),
                  flight_out.c_str());
    } else {
      status = 1;
    }
  }
  if (const std::string report_out = args.value("report-out"); !report_out.empty()) {
    core::HealthReportOptions options;
    options.min_samples_per_mac = static_cast<std::size_t>(args.value_int("min-samples", 16));
    // A quick holdout evaluation for the error-summary section. Uses an RNG
    // stream forked after the campaign finished, so the campaign itself is
    // byte-identical with and without --report-out.
    const data::Dataset prepared =
        result.dataset.filter_min_samples_per_mac(options.min_samples_per_mac);
    if (prepared.size() >= 8) {
      util::Rng eval_rng = rng.fork("report-eval");
      const data::DatasetSplit split = prepared.split(0.75, eval_rng);
      if (!split.train.empty() && !split.test.empty()) {
        const ml::ModelKind kind = model_by_name(args.value("model", "knn-onehot-x3-k16"));
        const auto model = ml::make_model(kind);
        model->fit(split.train);
        options.model_name = ml::model_kind_name(kind);
        options.holdout = ml::evaluate(*model, split.test);
      }
    }
    const std::vector<flightlog::Event> events = flightlog::recorder().merged();
    if (core::export_health_report_file(report_out, result, events,
                                        obs::registry().snapshot(), options)) {
      std::printf("health report written to %s\n", report_out.c_str());
    } else {
      status = 1;
    }
  }
  if (const std::string snap = args.value("snapshot-out"); !snap.empty()) {
    core::RemBuilderConfig rem_config;
    rem_config.voxel_m = args.value_double("voxel", 0.25);
    rem_config.min_samples_per_mac =
        static_cast<std::size_t>(args.value_int("min-samples", 16));
    const data::Dataset prepared =
        result.dataset.filter_min_samples_per_mac(rem_config.min_samples_per_mac);
    if (prepared.empty()) {
      std::fprintf(stderr, "no samples survive the min-samples rule; snapshot not written\n");
      status = 1;
    } else {
      auto model = ml::make_model(model_by_name(args.value("model", "knn-onehot-x3-k16")));
      core::RadioEnvironmentMap rem =
          core::build_rem(result.dataset, *model, volume_for(args), rem_config);
      if (write_snapshot(snap, prepared, std::move(rem), std::move(model)) != 0) status = 1;
    }
  }
  return status;
}

int cmd_info(const util::Args& args) {
  const data::Dataset ds = load_dataset(args.value("in", "dataset.csv"));
  if (ds.empty()) {
    std::printf("dataset is empty\n");
    return 1;
  }
  std::size_t dropped = 0;
  const data::Dataset retained = ds.filter_min_samples_per_mac(
      static_cast<std::size_t>(args.value_int("min-samples", 16)), &dropped);
  std::printf("samples        : %zu\n", ds.size());
  std::printf("distinct MACs  : %zu\n", ds.distinct_macs().size());
  std::printf("distinct SSIDs : %zu\n", ds.distinct_ssids().size());
  std::printf("mean RSS       : %.1f dBm\n", ds.mean_rss_dbm());
  std::printf("retained       : %zu (%zu dropped by the min-samples rule)\n", retained.size(),
              dropped);
  for (const auto& [uav, count] : ds.samples_per_uav()) {
    std::printf("UAV %c samples  : %zu\n", static_cast<char>('A' + uav), count);
  }
  return 0;
}

int cmd_evaluate(const util::Args& args) {
  const data::Dataset ds = load_dataset(args.value("in", "dataset.csv"));
  const data::Dataset prepared = ds.filter_min_samples_per_mac(
      static_cast<std::size_t>(args.value_int("min-samples", 16)));
  if (prepared.empty()) {
    std::fprintf(stderr, "no samples survive the min-samples rule\n");
    return 1;
  }
  util::Rng rng(static_cast<std::uint64_t>(args.value_int("seed", 99)));
  const data::DatasetSplit split = prepared.split(args.value_double("split", 0.75), rng);

  std::vector<ml::ModelKind> kinds;
  const std::string requested = args.value("model", "all");
  if (requested == "all") {
    kinds = ml::all_model_kinds(true);
  } else {
    kinds.push_back(model_by_name(requested));
  }
  std::printf("%-28s %10s %10s %8s\n", "model", "RMSE(dBm)", "MAE(dBm)", "R2");
  for (const ml::ModelKind kind : kinds) {
    const auto model = ml::make_model(kind);
    model->fit(split.train);
    const ml::RegressionMetrics m = ml::evaluate(*model, split.test);
    std::printf("%-28s %10.4f %10.4f %8.4f\n", ml::model_kind_name(kind), m.rmse, m.mae, m.r2);
  }
  return 0;
}

int cmd_rem(const util::Args& args) {
  const data::Dataset ds = load_dataset(args.value("in", "dataset.csv"));
  auto model = ml::make_model(model_by_name(args.value("model", "knn-onehot-x3-k16")));
  core::RemBuilderConfig config;
  config.voxel_m = args.value_double("voxel", 0.25);
  config.min_samples_per_mac = static_cast<std::size_t>(args.value_int("min-samples", 16));
  core::RadioEnvironmentMap rem = core::build_rem(ds, *model, volume_for(args), config);
  const std::string out = args.value("out", "rem.csv");
  std::ofstream file(out);
  rem.write_csv(file);
  std::printf("REM: %zu transmitters over %zux%zux%zu voxels written to %s\n",
              rem.macs().size(), rem.geometry().nx(), rem.geometry().ny(), rem.geometry().nz(),
              out.c_str());
  std::printf("coverage at -80 dBm: %.1f%%\n", rem.coverage_fraction(-80.0) * 100.0);
  if (const std::string snap = args.value("snapshot-out"); !snap.empty()) {
    // build_rem fitted the model on the preprocessed dataset; bundle that
    // same dataset so remgen-serve reconstructs identical query context.
    const data::Dataset prepared = ds.filter_min_samples_per_mac(config.min_samples_per_mac);
    return write_snapshot(snap, prepared, std::move(rem), std::move(model));
  }
  return 0;
}

int cmd_query(const util::Args& args) {
  const data::Dataset ds = load_dataset(args.value("in", "dataset.csv"));
  const auto at = util::parse_triple(args.value("at", ""));
  if (!at.has_value()) {
    std::fprintf(stderr, "--at needs x,y,z as three finite numbers (got '%s')\n",
                 args.value("at", "").c_str());
    return 2;
  }
  const geom::Vec3 point{(*at)[0], (*at)[1], (*at)[2]};
  const auto model = ml::make_model(model_by_name(args.value("model", "knn-onehot-x3-k16")));
  const data::Dataset prepared = ds.filter_min_samples_per_mac(
      static_cast<std::size_t>(args.value_int("min-samples", 16)));
  model->fit(prepared.samples());

  // Predict every MAC at the point and print the strongest first.
  std::map<radio::MacAddress, int> channel_of;
  for (const data::Sample& s : prepared.samples()) channel_of[s.mac] = s.channel;
  std::vector<std::pair<double, radio::MacAddress>> predictions;
  for (const auto& [mac, channel] : channel_of) {
    data::Sample query;
    query.mac = mac;
    query.channel = channel;
    query.position = point;
    predictions.emplace_back(model->predict(query), mac);
  }
  std::sort(predictions.rbegin(), predictions.rend());
  const auto top = static_cast<std::size_t>(args.value_int("top", 5));
  std::printf("predicted RSS at %s:\n", point.to_string().c_str());
  for (std::size_t i = 0; i < std::min(top, predictions.size()); ++i) {
    std::printf("  %s  %7.1f dBm\n", predictions[i].second.to_string().c_str(),
                predictions[i].first);
  }
  return 0;
}

int cmd_drift(const util::Args& args) {
  const data::Dataset baseline = load_dataset(args.value("baseline", "dataset.csv"));
  const data::Dataset probe = load_dataset(args.value("probe", "probe.csv"));
  const auto model = ml::make_model(model_by_name(args.value("model", "per-mac-knn")));
  core::RemBuilderConfig config;
  config.min_samples_per_mac = static_cast<std::size_t>(args.value_int("min-samples", 16));
  if (baseline.filter_min_samples_per_mac(config.min_samples_per_mac).empty()) {
    std::fprintf(stderr,
                 "no baseline samples survive the min-samples rule; lower --min-samples\n");
    return 1;
  }
  const core::RadioEnvironmentMap rem =
      core::build_rem(baseline, *model, volume_for(args), config);
  const core::DriftReport report = core::detect_drift(rem, probe.samples());
  if (report.judged_macs == 0) {
    std::fprintf(stderr,
                 "note: no MAC reached the %zu-sample judging threshold — fly a probe with "
                 "more waypoints\n",
                 core::DriftConfig{}.min_samples_per_mac);
  }
  std::printf("judged %zu MACs: %zu drifted, %zu unknown, %zu vanished -> REM %s\n",
              report.judged_macs, report.drifted_macs, report.unknown_macs,
              report.vanished.size(), report.rem_stale ? "STALE" : "still valid");
  for (const core::MacDrift& d : report.per_mac) {
    if (!d.drifted) continue;
    std::printf("  drifted: %s  mean %+.1f dB, rms %.1f dB over %zu samples\n",
                d.mac.to_string().c_str(), d.mean_residual_db, d.rms_residual_db, d.samples);
  }
  for (const radio::MacAddress& mac : report.vanished) {
    std::printf("  vanished: %s\n", mac.to_string().c_str());
  }
  return 0;
}

}  // namespace

namespace {

int dispatch(const util::Args& args) {
  if (args.command() == "campaign") return cmd_campaign(args);
  if (args.command() == "info") return cmd_info(args);
  if (args.command() == "evaluate") return cmd_evaluate(args);
  if (args.command() == "rem") return cmd_rem(args);
  if (args.command() == "query") return cmd_query(args);
  if (args.command() == "drift") return cmd_drift(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string> value_keys{"seed",      "grid",  "uavs",   "out",   "in",
                                         "model",     "split", "voxel",  "at",    "top",
                                         "baseline",  "probe", "min-samples", "positioning",
                                         "receivers", "env",   "log-level", "metrics-out",
                                         "metrics-prom", "trace-out", "profile-out",
                                         "threads",
                                         "fault-profile", "fault-seed",
                                         "flightlog-out", "report-out", "snapshot-out"};
  const std::set<std::string> flag_keys{"radio-on", "optimize-route", "adaptive-legs", "help"};
  std::string error;
  const auto args = remgen::util::Args::parse(argc, argv, value_keys, flag_keys, &error);
  if (!args) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return usage();
  }

  if (args->has("threads")) {
    const int threads = args->value_int("threads", 0);
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
      std::fprintf(stderr, "unknown log level '%s' (want trace|debug|info|warn|error|off)\n",
                   args->value("log-level").c_str());
      return 2;
    }
  }

  const obs::TelemetryOptions telemetry{.announce = true};
  obs::start_telemetry(*args, telemetry);

  if (args->has("flightlog-out") || args->has("report-out")) {
    if (!flightlog::compiled()) {
      std::fprintf(stderr,
                   "warning: the flight recorder was compiled out (-DREMGEN_OBS=OFF); "
                   "the log and report will be empty\n");
    }
    flightlog::set_enabled(true);
    // The health report joins the event log with the metrics registry, so
    // recording implies metrics collection.
    obs::set_enabled(true);
  }

  int status = 0;
  {
    // Root scope: everything the command does hangs under cli.<command>.
    const obs::Scope root("cli." + args->command());
    status = dispatch(*args);
  }
  if (!obs::finish_telemetry(*args, telemetry) && status == 0) status = 1;
  return status;
}
