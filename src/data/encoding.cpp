#include "data/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/contracts.hpp"

namespace remgen::data {

FeatureEncoder FeatureEncoder::fit(std::span<const Sample> samples, const FeatureConfig& config) {
  REMGEN_EXPECTS(!samples.empty());
  FeatureEncoder enc;
  enc.config_ = config;

  // A sorted vocabulary makes the encoding independent of sample order.
  std::set<radio::MacAddress> macs;
  geom::Vec3 lo = samples.front().position;
  geom::Vec3 hi = lo;
  for (const Sample& s : samples) {
    macs.insert(s.mac);
    lo = {std::min(lo.x, s.position.x), std::min(lo.y, s.position.y),
          std::min(lo.z, s.position.z)};
    hi = {std::max(hi.x, s.position.x), std::max(hi.y, s.position.y),
          std::max(hi.z, s.position.z)};
  }
  int next = 0;
  for (const radio::MacAddress& mac : macs) enc.mac_index_[mac] = next++;

  enc.position_min_ = lo;
  constexpr double kEps = 1e-9;
  enc.position_range_ = {std::max(hi.x - lo.x, kEps), std::max(hi.y - lo.y, kEps),
                         std::max(hi.z - lo.z, kEps)};

  enc.dimension_ = 0;
  if (config.include_position) enc.dimension_ += 3;
  if (config.include_mac_onehot) enc.dimension_ += enc.mac_index_.size();
  REMGEN_ENSURES(enc.dimension_ > 0);
  return enc;
}

int FeatureEncoder::mac_index(const radio::MacAddress& mac) const {
  const auto it = mac_index_.find(mac);
  return it == mac_index_.end() ? -1 : it->second;
}

std::vector<double> FeatureEncoder::encode(const Sample& sample) const {
  std::vector<double> out(dimension_, 0.0);
  encode_into(sample, out);
  return out;
}

void FeatureEncoder::encode_into(const Sample& sample, std::span<double> out) const {
  REMGEN_EXPECTS(out.size() == dimension_);
  std::size_t base = 0;
  if (config_.include_position) {
    if (config_.normalize_position) {
      out[0] = (sample.position.x - position_min_.x) / position_range_.x;
      out[1] = (sample.position.y - position_min_.y) / position_range_.y;
      out[2] = (sample.position.z - position_min_.z) / position_range_.z;
    } else {
      out[0] = sample.position.x;
      out[1] = sample.position.y;
      out[2] = sample.position.z;
    }
    base = 3;
  }
  if (config_.include_mac_onehot) {
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(), 0.0);
    if (const int idx = mac_index(sample.mac); idx >= 0) {
      out[base + static_cast<std::size_t>(idx)] = config_.mac_onehot_scale;
    }
  }
}

std::vector<std::vector<double>> FeatureEncoder::encode_all(
    std::span<const Sample> samples) const {
  std::vector<std::vector<double>> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(encode(s));
  return out;
}

TargetScaler TargetScaler::fit(std::span<const double> values) {
  REMGEN_EXPECTS(!values.empty());
  TargetScaler scaler;
  double acc = 0.0;
  for (const double v : values) acc += v;
  scaler.mean_ = acc / static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) var += (v - scaler.mean_) * (v - scaler.mean_);
  var /= static_cast<double>(values.size());
  scaler.std_ = var > 1e-12 ? std::sqrt(var) : 1.0;
  return scaler;
}

std::vector<double> rss_targets(std::span<const Sample> samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.rss_dbm);
  return out;
}

}  // namespace remgen::data
