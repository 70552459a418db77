// Quickstart: the smallest end-to-end use of the remgen public API.
//
// Builds the apartment scenario, flies a single UAV over a coarse waypoint
// grid, trains the paper's best kNN model on the collected samples, builds a
// REM and queries it at a location the UAV never visited.
#include <cstdio>

#include "core/pipeline.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  remgen::util::init_log_level_from_args(argc, argv);

  using namespace remgen;

  // 1. A simulated indoor environment (apartment + neighbouring Wi-Fi APs).
  util::Rng rng(/*seed=*/7);
  const radio::Scenario scenario = radio::Scenario::make_apartment(rng);
  std::printf("scenario: %zu access points, scan volume %.2f x %.2f x %.2f m\n",
              scenario.environment().access_points().size(), scenario.scan_volume().size().x,
              scenario.scan_volume().size().y, scenario.scan_volume().size().z);

  // 2. A small single-UAV campaign: 3x2x2 = 12 waypoints.
  core::PipelineConfig config;
  config.campaign.grid = {.nx = 3, .ny = 2, .nz = 2, .margin_m = 0.4};
  config.campaign.uav_count = 1;
  config.rem.min_samples_per_mac = 8;  // the tiny campaign yields fewer samples
  config.model = ml::ModelKind::KnnScaled16;
  config.rem.voxel_m = 0.4;

  const core::PipelineResult result = core::run_pipeline(scenario, config, rng);

  std::printf("campaign: %zu samples from %zu scans (%.1f s flight)\n",
              result.campaign.dataset.size(), result.campaign.uav_stats.at(0).scans_completed,
              result.campaign.uav_stats.at(0).active_time_s);
  std::printf("model holdout RMSE: %.3f dBm\n", result.holdout.rmse);

  // 3. Query the REM at an unvisited point.
  const geom::Vec3 query_point{1.7, 1.1, 0.9};
  if (const auto best = result.rem->best_ap(query_point)) {
    std::printf("strongest AP at %s: %s, predicted %.1f dBm\n",
                query_point.to_string().c_str(), best->mac.to_string().c_str(),
                best->cell.rss_dbm);
  }
  std::printf("coverage at -80 dBm: %.1f%% of the volume\n",
              result.rem->coverage_fraction(-80.0) * 100.0);
  return 0;
}
