#include "mission/base_station.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "flightlog/flightlog.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"
#include "util/quoted.hpp"

namespace remgen::mission {

BaseStation::BaseStation(const MissionConfig& config) : config_(config) {
  REMGEN_EXPECTS(config.tick_s > 0.0);
  REMGEN_EXPECTS(config.scan_window_s > 0.0);
}

void BaseStation::drain_telemetry(uav::Crazyflie& uav, data::Dataset& out) {
  for (const uav::CrtpPacket& packet : uav.link().base_receive(uav.now())) {
    if (packet.port != "tlm") continue;
    std::istringstream in(packet.payload);
    std::string kind;
    in >> kind;
    if (kind == "state") {
      geom::Vec3 p;
      double battery;
      std::string mode;
      if (in >> p.x >> p.y >> p.z >> battery >> mode) {
        last_battery_fraction_ = battery;
        // Record the discharge curve at 5%-of-charge steps, not every state
        // packet — the recorder never needs 2 Hz battery samples.
        if (flightlog::enabled() && last_logged_battery_fraction_ - battery >= 0.05) {
          last_logged_battery_fraction_ = battery;
          flightlog::emit_at(flightlog::EventKind::BatteryState, uav.now(),
                             flightlog::BatteryEvent{battery, false});
        }
      }
    } else if (kind == "scanmeta") {
      int wp;
      geom::Vec3 p;
      std::size_t n;
      if (in >> wp >> p.x >> p.y >> p.z >> n) {
        last_scan_waypoint_ = wp;
        last_scan_position_ = p;
        last_scan_tuple_count_ = n;
      }
    } else if (kind == "scanres") {
      // The SSID is a quoted field (it may contain spaces or be empty for a
      // hidden network), matching the UAV-side framing.
      int wp;
      std::string ssid;
      int rssi;
      std::string mac_text;
      int channel;
      if ((in >> wp) && util::read_quoted_field(in, ssid) &&
          (in >> rssi >> mac_text >> channel)) {
        const auto mac = radio::MacAddress::parse(mac_text);
        if (!mac || wp != last_scan_waypoint_) {
          if (flightlog::enabled()) {
            flightlog::emit_at(flightlog::EventKind::ScanresDropped, uav.now(),
                               flightlog::SampleEvent{wp, mac ? mac->to_string() : std::string{},
                                                      static_cast<double>(rssi),
                                                      !mac ? "bad_mac" : "stale_waypoint"});
          }
          continue;
        }
        data::Sample sample;
        sample.position = last_scan_position_;
        sample.ssid = ssid;
        sample.rss_dbm = rssi;
        sample.mac = *mac;
        sample.channel = channel;
        sample.timestamp_s = uav.now();
        sample.uav_id = uav.id();
        sample.waypoint_index = wp;
        out.add(std::move(sample));
        ++samples_this_mission_;
        if (wp >= 0 && static_cast<std::size_t>(wp) < samples_per_waypoint_.size()) {
          ++samples_per_waypoint_[static_cast<std::size_t>(wp)];
        }
        if (flightlog::enabled()) {
          flightlog::emit_at(flightlog::EventKind::ScanresAccepted, uav.now(),
                             flightlog::SampleEvent{wp, mac->to_string(),
                                                    static_cast<double>(rssi), {}});
        }
      } else {
        REMGEN_COUNTER_ADD("mission.malformed_scanres", 1);
        REMGEN_FLIGHTLOG_AT(flightlog::EventKind::ScanresDropped, uav.now(),
                            flightlog::SampleEvent{-1, {}, 0.0, "malformed"});
      }
    }
  }
}

long long BaseStation::phase_ticks(double duration) const {
  // Integer tick counts: the old `for (t = 0; t < duration; t += tick_s)`
  // pattern accumulated floating-point error, so a 4 s phase at 0.01 s ticks
  // could run 399 or 401 iterations depending on the values involved.
  long long ticks = std::llround(duration / config_.tick_s);
  if (duration > 0.0 && ticks == 0) ticks = 1;
  return ticks;
}

long long BaseStation::ticks_per_setpoint() const {
  return std::max<long long>(1, std::llround(config_.setpoint_period_s / config_.tick_s));
}

bool BaseStation::scan_complete(std::size_t i) const {
  return last_scan_waypoint_ == static_cast<int>(i) &&
         (samples_per_waypoint_[i] > 0 || last_scan_tuple_count_ == 0);
}

void BaseStation::fly_phase(uav::Crazyflie& uav, const geom::Vec3& setpoint, double duration,
                            data::Dataset& out) {
  const long long ticks = phase_ticks(duration);
  const long long setpoint_every = ticks_per_setpoint();
  for (long long k = 0; k < ticks; ++k) {
    if (k % setpoint_every == 0) {
      uav.link().base_send({"cmd", util::format("goto {:.4f} {:.4f} {:.4f}", setpoint.x,
                                                setpoint.y, setpoint.z)},
                           uav.now());
    }
    uav.step(config_.tick_s);
    drain_telemetry(uav, out);
  }
}

void BaseStation::wait_phase(uav::Crazyflie& uav, double duration, data::Dataset& out) {
  const long long ticks = phase_ticks(duration);
  for (long long k = 0; k < ticks; ++k) {
    uav.step(config_.tick_s);
    drain_telemetry(uav, out);
  }
}

UavMissionStats BaseStation::run_mission(uav::Crazyflie& uav,
                                         const std::vector<geom::Vec3>& waypoints,
                                         data::Dataset& out) {
  UavMissionStats stats;
  stats.uav_id = uav.id();
  last_battery_fraction_ = 1.0;
  // Above any real fraction, so the first state packet always logs one
  // BatteryState baseline event.
  last_logged_battery_fraction_ = 2.0;
  last_scan_waypoint_ = -1;
  last_scan_tuple_count_ = 0;
  samples_this_mission_ = 0;
  samples_per_waypoint_.assign(waypoints.size(), 0);
  stats.waypoint_reports.resize(waypoints.size());
  for (std::size_t i = 0; i < waypoints.size(); ++i) {
    stats.waypoint_reports[i].waypoint_index = i;
  }

  obs::set_sim_time(uav.now());
  obs::Scope mission_scope("mission.uav_mission");
  mission_scope.arg("uav", uav.id());
  mission_scope.arg("waypoints", waypoints.size());

  const double mission_start = uav.now();
  const std::size_t scans_before = uav.completed_scans();

  // Take off.
  uav.link().base_send({"cmd", util::format("takeoff {:.2f}", config_.takeoff_height_m)},
                       uav.now());
  geom::Vec3 hover = uav.estimated_position();
  hover.z = config_.takeoff_height_m;
  {
    REMGEN_SCOPE("mission.takeoff");
    fly_phase(uav, hover, config_.takeoff_time_s, out);
  }

  for (std::size_t i = 0; i < waypoints.size(); ++i) {
    if (last_battery_fraction_ < config_.battery_abort_fraction) {
      stats.aborted_on_battery = true;
      REMGEN_FLIGHTLOG_AT(flightlog::EventKind::BatteryState, uav.now(),
                          flightlog::BatteryEvent{last_battery_fraction_, true});
      util::logf(util::LogLevel::Info, "base-station",
                 "uav {}: battery at {:.0f}%, aborting after {} waypoints", uav.id(),
                 last_battery_fraction_ * 100.0, i);
      break;
    }
    const geom::Vec3& wp = waypoints[i];
    ++stats.waypoints_commanded;

    obs::Scope waypoint_scope("mission.waypoint");
    waypoint_scope.arg("uav", uav.id());
    waypoint_scope.arg("index", i);

    // (ii) fly to the waypoint. With adaptive timing the leg duration comes
    // from the actual leg length; the paper's fixed 4 s otherwise.
    double fly_time = config_.fly_time_s;
    if (config_.adaptive_leg_timing) {
      const geom::Vec3 from = i == 0 ? uav.estimated_position() : waypoints[i - 1];
      fly_time = config_.leg_timing.fly_time_s(from.distance_to(wp));
    }
    {
      REMGEN_SCOPE("mission.fly_leg");
      fly_phase(uav, wp, fly_time, out);
    }
    REMGEN_FLIGHTLOG_AT(flightlog::EventKind::WaypointArrive, uav.now(),
                        flightlog::WaypointEvent{static_cast<std::int32_t>(i), wp});

    int attempts_used = 0;
    for (int attempt = 0; attempt <= config_.scan_retries; ++attempt) {
      obs::Scope scan_scope("mission.scan");
      scan_scope.arg("waypoint", i);
      scan_scope.arg("attempt", attempt);
      ++attempts_used;

      // Exponential backoff between attempts: a stalled or faulted deck needs
      // time to self-heal before another scan command can succeed.
      if (attempt > 0 && config_.scan_retry_backoff_s > 0.0) {
        const double backoff =
            std::min(config_.scan_retry_backoff_s * std::pow(2.0, attempt - 1),
                     config_.scan_retry_backoff_max_s);
        REMGEN_COUNTER_ADD("mission.scan_retry_backoffs", 1);
        REMGEN_FLIGHTLOG_AT(
            flightlog::EventKind::ScanBackoff, uav.now(),
            flightlog::ScanEvent{static_cast<std::int32_t>(i), attempt, backoff});
        fly_phase(uav, wp, backoff, out);
      }

      // (iii) initiate the on-demand scan.
      REMGEN_FLIGHTLOG_AT(flightlog::EventKind::ScanAttempt, uav.now(),
                          flightlog::ScanEvent{static_cast<std::int32_t>(i), attempt, 0.0});
      uav.link().base_send({"cmd", util::format("scan {}", i)}, uav.now());
      fly_phase(uav, wp, config_.scan_command_lead_s, out);

      // (iv) shut down the Crazyradio while the scan runs.
      if (config_.radio_off_during_scan) {
        uav.link().set_radio_enabled(false, uav.now());
        wait_phase(uav, config_.scan_window_s, out);
        // (v) restart the radio after the scan.
        uav.link().set_radio_enabled(true, uav.now());
      } else {
        fly_phase(uav, wp, config_.scan_window_s, out);
      }

      // (vi) fetch/parse/store results (they flush from the CRTP TX queue).
      fly_phase(uav, wp, config_.fetch_time_s, out);

      // Scan watchdog: an injected stall keeps the deck busy well past the
      // nominal window; hold position and keep draining until the results
      // land or the watchdog budget runs out.
      if (config_.scan_watchdog_s > 0.0 && !scan_complete(i)) {
        REMGEN_COUNTER_ADD("mission.scan_watchdog_waits", 1);
        REMGEN_FLIGHTLOG_AT(flightlog::EventKind::ScanWatchdog, uav.now(),
                            flightlog::ScanEvent{static_cast<std::int32_t>(i), attempt,
                                                 config_.scan_watchdog_s});
        const long long ticks = phase_ticks(config_.scan_watchdog_s);
        const long long setpoint_every = ticks_per_setpoint();
        for (long long k = 0; k < ticks && !scan_complete(i); ++k) {
          if (k % setpoint_every == 0) {
            uav.link().base_send({"cmd", util::format("goto {:.4f} {:.4f} {:.4f}", wp.x, wp.y,
                                                      wp.z)},
                                 uav.now());
          }
          uav.step(config_.tick_s);
          drain_telemetry(uav, out);
        }
      }

      // The scan command, its metadata or its results can all be lost on air.
      // Retry unless stored samples (or a legitimately empty scan) prove the
      // waypoint was actually covered — metadata arriving is NOT enough, as
      // the scanmeta packet regularly survives a flush that dropped every
      // scanres behind it.
      if (scan_complete(i)) break;
      if (attempt < config_.scan_retries) {
        REMGEN_COUNTER_ADD("mission.scan_retries", 1);
        REMGEN_FLIGHTLOG_AT(flightlog::EventKind::ScanRetry, uav.now(),
                            flightlog::ScanEvent{static_cast<std::int32_t>(i), attempt, 0.0});
      }
    }
    REMGEN_HISTOGRAM_OBSERVE("mission.scan_attempts", attempts_used, {1, 2, 3, 4});

    WaypointReport& report = stats.waypoint_reports[i];
    report.commanded = true;
    report.attempts = static_cast<std::size_t>(attempts_used);
    report.samples = samples_per_waypoint_[i];
    report.reported_empty =
        last_scan_waypoint_ == static_cast<int>(i) && last_scan_tuple_count_ == 0;
    report.covered = report.samples > 0 || report.reported_empty;
    REMGEN_FLIGHTLOG_AT(flightlog::EventKind::WaypointLeave, uav.now(),
                        flightlog::WaypointEvent{static_cast<std::int32_t>(i), wp,
                                                 report.samples, report.attempts,
                                                 report.covered});
    if (!report.covered) {
      REMGEN_COUNTER_ADD("mission.waypoints_uncovered", 1);
      util::logf(util::LogLevel::Warn, "base-station",
                 "uav {}: waypoint {} uncovered after {} attempts", uav.id(), i, attempts_used);
    }
  }

  // Land and shut down.
  REMGEN_SCOPE("mission.land");
  const long long landing_ticks = phase_ticks(config_.landing_time_s);
  const long long setpoint_every = ticks_per_setpoint();
  long long landed_ticks = 0;
  for (long long k = 0; k < landing_ticks; ++k) {
    if (k % setpoint_every == 0) uav.link().base_send({"cmd", "land"}, uav.now());
    uav.step(config_.tick_s);
    drain_telemetry(uav, out);
    if (!uav.flying()) {
      ++landed_ticks;
      if (static_cast<double>(landed_ticks) * config_.tick_s > 0.2) break;
    }
  }
  uav.link().base_send({"cmd", "stop"}, uav.now());
  wait_phase(uav, 0.1, out);

  stats.active_time_s = uav.now() - mission_start;
  stats.scans_completed = uav.completed_scans() - scans_before;
  stats.samples_collected = samples_this_mission_;
  stats.tx_queue_drops = uav.link().tx_queue_drops();
  stats.battery_remaining_fraction = uav.battery().fraction_remaining();
  return stats;
}

}  // namespace remgen::mission
