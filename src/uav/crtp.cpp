#include "uav/crtp.hpp"

#include "flightlog/flightlog.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace remgen::uav {

bool CrtpLink::on_air_loss() {
  if (rng_.bernoulli(config_.loss_probability)) return true;
  if (injector_ && injector_->drop_packet()) {
    REMGEN_COUNTER_ADD("fault.crtp.injected_drops", 1);
    REMGEN_FLIGHTLOG(flightlog::EventKind::FaultInjected,
                     flightlog::FaultEvent{"crtp", "injected_drop"});
    return true;
  }
  return false;
}

double CrtpLink::delivery_latency_s() {
  double latency = config_.latency_s;
  if (injector_) latency += injector_->extra_latency_s();
  return latency;
}

void CrtpLink::set_radio_enabled(bool enabled, double now_s) {
  if (enabled == radio_on_) return;
  radio_on_ = enabled;
  if (obs::enabled()) {
    obs::set_sim_time(now_s);
    obs::instant(enabled ? "crtp.radio_on" : "crtp.radio_off");
    obs::registry().counter(enabled ? "crtp.radio_on_events" : "crtp.radio_off_events").add(1);
  }
  // Link down/up with the TX backlog at the toggle: at radio-on this is the
  // number of frames about to flush through the lossy link.
  REMGEN_FLIGHTLOG_AT(enabled ? flightlog::EventKind::RadioOn : flightlog::EventKind::RadioOff,
                      now_s, flightlog::LinkEvent{tx_queue_.size(), tx_queue_drops_});
  if (enabled) {
    // Flush the UAV TX queue through the restored link.
    while (!tx_queue_.empty()) {
      CrtpPacket packet = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      if (on_air_loss()) {
        ++link_drops_;
        REMGEN_COUNTER_ADD("crtp.link_drops", 1);
        continue;
      }
      to_base_.push_back({std::move(packet), now_s + delivery_latency_s()});
    }
  }
}

bool CrtpLink::uav_send(CrtpPacket packet, double now_s) {
  packet.sent_at_s = now_s;
  if (!radio_on_) {
    if (tx_queue_.size() >= config_.tx_queue_size) {
      ++tx_queue_drops_;
      REMGEN_COUNTER_ADD("crtp.tx_queue_drops", 1);
      return false;
    }
    tx_queue_.push_back(std::move(packet));
    return true;
  }
  if (on_air_loss()) {
    ++link_drops_;
    REMGEN_COUNTER_ADD("crtp.link_drops", 1);
    return false;
  }
  to_base_.push_back({std::move(packet), now_s + delivery_latency_s()});
  return true;
}

bool CrtpLink::base_send(CrtpPacket packet, double now_s) {
  packet.sent_at_s = now_s;
  if (!radio_on_) {
    ++link_drops_;
    REMGEN_COUNTER_ADD("crtp.link_drops", 1);
    return false;
  }
  if (on_air_loss()) {
    ++link_drops_;
    REMGEN_COUNTER_ADD("crtp.link_drops", 1);
    return false;
  }
  to_uav_.push_back({std::move(packet), now_s + delivery_latency_s()});
  return true;
}

std::vector<CrtpPacket> CrtpLink::base_receive(double now_s) {
  std::vector<CrtpPacket> out;
  while (!to_base_.empty() && to_base_.front().deliver_at_s <= now_s) {
    out.push_back(std::move(to_base_.front().packet));
    to_base_.pop_front();
  }
  return out;
}

std::vector<CrtpPacket> CrtpLink::uav_receive(double now_s) {
  std::vector<CrtpPacket> out;
  while (!to_uav_.empty() && to_uav_.front().deliver_at_s <= now_s) {
    out.push_back(std::move(to_uav_.front().packet));
    to_uav_.pop_front();
  }
  return out;
}

}  // namespace remgen::uav
