#include "mission/campaign.hpp"

#include "mission/planner.hpp"

#include <algorithm>
#include <utility>

#include "data/sink.hpp"
#include "exec/parallel.hpp"
#include "flightlog/flightlog.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace remgen::mission {

namespace {

/// Single source for per-mission reporting: the Info log line and the
/// campaign.* metrics both read the same UavMissionStats.
void record_mission_stats(const UavMissionStats& stats) {
  util::logf(util::LogLevel::Info, "campaign",
             "uav {}: {} waypoints, {} scans, {} samples, active {:.1f}s", stats.uav_id,
             stats.waypoints_commanded, stats.scans_completed, stats.samples_collected,
             stats.active_time_s);
  REMGEN_COUNTER_ADD("campaign.missions", 1);
  REMGEN_COUNTER_ADD("campaign.waypoints_commanded", stats.waypoints_commanded);
  REMGEN_COUNTER_ADD("campaign.scans_completed", stats.scans_completed);
  REMGEN_COUNTER_ADD("campaign.samples_collected", stats.samples_collected);
  REMGEN_COUNTER_ADD("campaign.tx_queue_drops", stats.tx_queue_drops);
  if (stats.aborted_on_battery) REMGEN_COUNTER_ADD("campaign.battery_aborts", 1);
  if (obs::enabled()) {
    // Per-UAV metric names are dynamic, so they bypass the caching macros.
    obs::registry()
        .gauge(util::format("campaign.uav_{}.active_time_s", stats.uav_id))
        .set(stats.active_time_s);
    obs::registry()
        .gauge(util::format("campaign.uav_{}.battery_remaining_fraction", stats.uav_id))
        .set(stats.battery_remaining_fraction);
  }
}

/// One UAV's schedulable unit: its slab index plus the RNG pre-forked from
/// the campaign stream in UAV order, so the parent stream is consumed exactly
/// as the sequential implementation consumed it.
struct MissionTask {
  std::size_t uav;
  geom::Vec3 start;  ///< Floor position beneath the slab's pre-planning front.
  util::Rng rng;
};

/// What a mission produces; merged back into CampaignResult in UAV order.
struct MissionOutcome {
  UavMissionStats stats;
  data::Dataset dataset;
};

}  // namespace

std::vector<WaypointCoverage> CampaignResult::uncovered_waypoints() const {
  std::vector<WaypointCoverage> open;
  for (const WaypointCoverage& c : coverage) {
    if (!c.covered) open.push_back(c);
  }
  return open;
}

CampaignResult run_campaign(const radio::Scenario& scenario, const CampaignConfig& config,
                            util::Rng& rng) {
  REMGEN_EXPECTS(config.uav_count > 0);
  REMGEN_EXPECTS(!config.receivers.empty());
  REMGEN_EXPECTS(config.rescue_rounds >= 0);
  obs::Scope campaign_scope("mission.run_campaign");
  campaign_scope.arg("uav_count", config.uav_count);
  CampaignResult result;

  // Distribute the campaign fault plan into the per-UAV component configs.
  uav::CrazyflieConfig uav_config = config.uav;
  apply_fault_plan(config.faults, uav_config);

  const std::vector<geom::Vec3> waypoints =
      generate_waypoint_grid(scenario.scan_volume(), config.grid);
  std::vector<std::vector<geom::Vec3>> slabs =
      split_waypoints_by_axis(waypoints, config.split_axis, config.uav_count);

  // UAV 0 (drone A) takes the highest slab along the split axis.
  std::reverse(slabs.begin(), slabs.end());
  result.assignments = slabs;

  const std::vector<uwb::Anchor> anchors =
      config.anchor_count == 8
          ? uwb::corner_anchors(scenario.scan_volume())
          : uwb::corner_anchors_subset(scenario.scan_volume(), config.anchor_count);

  // One mission, start to finish: builds the positioning stack, the deck and
  // the UAV, waits out the AT handshake, then flies the waypoint list. Shared
  // by the primary fleet and the rescue rounds.
  auto run_one = [&](std::size_t uav_id, const std::vector<geom::Vec3>& wps,
                     const geom::Vec3& start, util::Rng uav_rng) {
    // Bind this thread to the UAV's flight-recorder stream for the whole
    // mission (sound because parallel_map runs each task start-to-finish on
    // one thread, chunk=1).
    flightlog::MissionScope recorder_scope(static_cast<std::int32_t>(uav_id));
    std::unique_ptr<uwb::PositioningSystem> positioning;
    if (config.positioning == PositioningKind::Lighthouse) {
      positioning = std::make_unique<lighthouse::LighthouseSystem>(
          lighthouse::standard_two_station_setup(scenario.scan_volume()),
          &scenario.floorplan(), config.lighthouse, uav_rng.fork("lighthouse"));
    } else {
      positioning = std::make_unique<uwb::LocoPositioningSystem>(
          anchors, &scenario.floorplan(), uav_config.lps, uav_rng.fork("lps"));
    }
    std::unique_ptr<uav::RemReceiverDeck> deck;
    if (config.receivers[uav_id % config.receivers.size()] == ReceiverKind::Ble) {
      deck = std::make_unique<uav::BleScannerDeck>(scenario.ble_environment(), config.ble_deck,
                                                   uav_rng.fork("ble-deck"));
    }
    uav::Crazyflie uav(static_cast<int>(uav_id), scenario.environment(), std::move(positioning),
                       uav_config, start, uav_rng, std::move(deck));
    // Give the deck time to finish its AT handshake before the mission.
    for (int i = 0; i < 100; ++i) uav.step(config.mission.tick_s);

    BaseStation station(config.mission);
    MissionOutcome outcome;
    outcome.stats = station.run_mission(uav, wps, outcome.dataset);
    return outcome;
  };

  // Sequential pre-pass in UAV order: route planning and RNG forking both
  // touch shared state (the slabs and the campaign RNG stream), and the fork
  // order is part of the determinism contract — the forked streams must match
  // what a threads=1 run hands each UAV.
  std::vector<MissionTask> tasks;
  tasks.reserve(slabs.size());
  for (std::size_t u = 0; u < slabs.size(); ++u) {
    if (slabs[u].empty()) continue;
    // Each UAV starts on the floor beneath its (pre-planning) first waypoint.
    geom::Vec3 start = slabs[u].front();
    start.z = 0.0;
    if (config.optimize_route) {
      geom::Vec3 airborne_start = start;
      airborne_start.z = config.mission.takeoff_height_m;
      slabs[u] = plan_route(slabs[u], airborne_start);
      result.assignments[u] = slabs[u];  // keep the report in sync
    }
    tasks.push_back(MissionTask{u, start, rng.fork(util::format("uav-{}", u))});
  }

  // Missions are independent given their pre-forked RNGs: each task owns its
  // UAV, base station, and dataset, and writes only its own outcome slot.
  std::vector<MissionOutcome> outcomes;
  {
    REMGEN_SCOPE("mission.fly_missions");
    outcomes = exec::parallel_map(
        tasks.size(),
        [&](std::size_t t) {
          MissionTask& task = tasks[t];
          return run_one(task.uav, slabs[task.uav], task.start, std::move(task.rng));
        },
        /*chunk=*/1, "campaign.mission");
  }

  // Merge in UAV index order: the dataset (and the log/metric stream) is
  // byte-identical to the sequential run regardless of mission scheduling.
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    MissionOutcome& outcome = outcomes[t];
    const std::size_t u = tasks[t].uav;
    record_mission_stats(outcome.stats);
    result.uav_stats.push_back(outcome.stats);
    result.dataset.append(outcome.dataset);
    if (config.sample_sink != nullptr) {
      config.sample_sink->push_batch(outcome.dataset.samples());
    }
    for (const WaypointReport& report : outcome.stats.waypoint_reports) {
      WaypointCoverage c;
      c.uav = u;
      c.waypoint_index = report.waypoint_index;
      c.position = slabs[u][report.waypoint_index];
      c.covered = report.covered;
      c.samples = report.samples;
      c.attempts = report.attempts;
      result.coverage.push_back(c);
    }
  }

  // Graceful degradation: waypoints the primary fleet left uncovered (lost
  // telemetry, battery aborts) are reassigned to fresh UAVs. Every decision
  // here reads only the ordered merge above, so the rescue rounds — and the
  // campaign RNG stream — are identical across thread counts, and a fault-free
  // campaign takes the exact code path it always did.
  std::size_t healthy = 0;
  for (const UavMissionStats& s : result.uav_stats) {
    if (!s.aborted_on_battery) ++healthy;
  }
  std::size_t next_uav_id = config.uav_count;
  for (int round = 1; round <= config.rescue_rounds; ++round) {
    std::vector<std::size_t> open;  // indices into result.coverage
    for (std::size_t c = 0; c < result.coverage.size(); ++c) {
      if (!result.coverage[c].covered) open.push_back(c);
    }
    if (open.empty()) break;

    obs::Scope rescue_scope("mission.rescue_round");
    rescue_scope.arg("round", round);
    rescue_scope.arg("open_waypoints", open.size());
    REMGEN_FLIGHTLOG_CAMPAIGN(flightlog::EventKind::RescueRound,
                              flightlog::CampaignEvent{round, open.size(), 0, 0, "rescue"});
    util::logf(util::LogLevel::Info, "campaign",
               "rescue round {}: {} uncovered waypoints, {} healthy uavs", round, open.size(),
               healthy);

    std::vector<geom::Vec3> open_positions;
    open_positions.reserve(open.size());
    for (std::size_t c : open) open_positions.push_back(result.coverage[c].position);
    const std::size_t rescue_fleet = std::max<std::size_t>(1, healthy);
    std::vector<std::vector<geom::Vec3>> rescue_slabs =
        split_waypoints_by_axis(open_positions, config.split_axis, rescue_fleet);
    rescue_slabs.erase(
        std::remove_if(rescue_slabs.begin(), rescue_slabs.end(),
                       [](const std::vector<geom::Vec3>& s) { return s.empty(); }),
        rescue_slabs.end());

    // Sequential pre-pass again: fork order is part of the determinism
    // contract, and rescue forks happen only when a rescue actually runs.
    std::vector<MissionTask> rescue_tasks;
    rescue_tasks.reserve(rescue_slabs.size());
    for (std::size_t k = 0; k < rescue_slabs.size(); ++k) {
      geom::Vec3 start = rescue_slabs[k].front();
      start.z = 0.0;
      rescue_tasks.push_back(MissionTask{next_uav_id + k, start,
                                         rng.fork(util::format("rescue-{}-{}", round, k))});
    }

    std::vector<MissionOutcome> rescue_outcomes = exec::parallel_map(
        rescue_tasks.size(),
        [&](std::size_t t) {
          MissionTask& task = rescue_tasks[t];
          return run_one(task.uav, rescue_slabs[t], task.start, std::move(task.rng));
        },
        /*chunk=*/1, "campaign.rescue");

    for (std::size_t k = 0; k < rescue_outcomes.size(); ++k) {
      MissionOutcome& outcome = rescue_outcomes[k];
      record_mission_stats(outcome.stats);
      REMGEN_COUNTER_ADD("campaign.rescue_missions", 1);
      result.uav_stats.push_back(outcome.stats);
      result.dataset.append(outcome.dataset);
      if (config.sample_sink != nullptr) {
        config.sample_sink->push_batch(outcome.dataset.samples());
      }
      result.assignments.push_back(rescue_slabs[k]);
      for (const WaypointReport& report : outcome.stats.waypoint_reports) {
        const geom::Vec3& pos = rescue_slabs[k][report.waypoint_index];
        for (std::size_t c : open) {
          WaypointCoverage& cov = result.coverage[c];
          if (cov.covered || cov.position.x != pos.x || cov.position.y != pos.y ||
              cov.position.z != pos.z) {
            continue;
          }
          cov.attempts += report.attempts;
          cov.samples += report.samples;
          if (report.covered) {
            cov.covered = true;
            cov.rescued = true;
            REMGEN_COUNTER_ADD("campaign.waypoints_rescued", 1);
          }
          break;
        }
      }
    }
    next_uav_id += rescue_slabs.size();
  }

  std::size_t uncovered_final = 0;
  std::size_t rescued_final = 0;
  for (const WaypointCoverage& c : result.coverage) {
    if (!c.covered) ++uncovered_final;
    if (c.rescued) ++rescued_final;
  }
  REMGEN_COUNTER_ADD("campaign.waypoints_uncovered", uncovered_final);
  // The authoritative closing entry: tallies that match WaypointCoverage even
  // for waypoints an aborted mission never commanded.
  REMGEN_FLIGHTLOG_CAMPAIGN(
      flightlog::EventKind::CoverageSummary,
      flightlog::CampaignEvent{0, result.coverage.size(),
                               result.coverage.size() - uncovered_final, rescued_final,
                               "final"});
  if (obs::enabled()) {
    obs::registry().gauge("campaign.coverage_fraction")
        .set(result.coverage.empty()
                 ? 1.0
                 : 1.0 - static_cast<double>(uncovered_final) /
                             static_cast<double>(result.coverage.size()));
  }
  if (uncovered_final > 0) {
    util::logf(util::LogLevel::Warn, "campaign", "{} waypoints remain uncovered",
               uncovered_final);
  }
  return result;
}

}  // namespace remgen::mission
