#include "data/dataset.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "data/sample_io.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace remgen::data {

void Dataset::append(const Dataset& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

std::set<radio::MacAddress> Dataset::distinct_macs() const {
  std::set<radio::MacAddress> out;
  for (const Sample& s : samples_) out.insert(s.mac);
  return out;
}

std::set<std::string> Dataset::distinct_ssids() const {
  std::set<std::string> out;
  for (const Sample& s : samples_) out.insert(s.ssid);
  return out;
}

double Dataset::mean_rss_dbm() const {
  REMGEN_EXPECTS(!samples_.empty());
  double acc = 0.0;
  for (const Sample& s : samples_) acc += s.rss_dbm;
  return acc / static_cast<double>(samples_.size());
}

std::map<radio::MacAddress, std::size_t> Dataset::samples_per_mac() const {
  std::map<radio::MacAddress, std::size_t> out;
  for (const Sample& s : samples_) ++out[s.mac];
  return out;
}

std::map<int, std::size_t> Dataset::samples_per_waypoint() const {
  std::map<int, std::size_t> out;
  for (const Sample& s : samples_) ++out[s.waypoint_index];
  return out;
}

std::map<int, std::size_t> Dataset::samples_per_uav() const {
  std::map<int, std::size_t> out;
  for (const Sample& s : samples_) ++out[s.uav_id];
  return out;
}

Dataset Dataset::filter_min_samples_per_mac(std::size_t min_samples, std::size_t* dropped) const {
  REMGEN_SCOPE("data.filter");
  const auto counts = samples_per_mac();
  Dataset out;
  std::size_t dropped_count = 0;
  for (const Sample& s : samples_) {
    if (counts.at(s.mac) >= min_samples) {
      out.add(s);
    } else {
      ++dropped_count;
    }
  }
  if (dropped != nullptr) *dropped = dropped_count;
  return out;
}

std::vector<std::pair<double, std::size_t>> Dataset::axis_histogram(int axis,
                                                                    double bin_width) const {
  REMGEN_EXPECTS(axis >= 0 && axis <= 2);
  REMGEN_EXPECTS(bin_width > 0.0);
  auto value = [axis](const Sample& s) {
    switch (axis) {
      case 0: return s.position.x;
      case 1: return s.position.y;
      default: return s.position.z;
    }
  };
  if (samples_.empty()) return {};
  double lo = value(samples_.front());
  double hi = lo;
  for (const Sample& s : samples_) {
    lo = std::min(lo, value(s));
    hi = std::max(hi, value(s));
  }
  const auto first_bin = static_cast<long>(std::floor(lo / bin_width));
  const auto last_bin = static_cast<long>(std::floor(hi / bin_width));
  std::vector<std::pair<double, std::size_t>> bins;
  for (long b = first_bin; b <= last_bin; ++b) {
    bins.emplace_back(static_cast<double>(b) * bin_width, 0);
  }
  for (const Sample& s : samples_) {
    const auto b = static_cast<long>(std::floor(value(s) / bin_width));
    bins[static_cast<std::size_t>(b - first_bin)].second += 1;
  }
  return bins;
}

DatasetSplit Dataset::split(double train_fraction, util::Rng& rng) const {
  REMGEN_EXPECTS(train_fraction > 0.0 && train_fraction < 1.0);
  std::vector<std::size_t> order(samples_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const auto train_count =
      static_cast<std::size_t>(std::llround(train_fraction * static_cast<double>(order.size())));
  DatasetSplit out;
  out.train.reserve(train_count);
  out.test.reserve(order.size() - train_count);
  for (std::size_t i = 0; i < order.size(); ++i) {
    (i < train_count ? out.train : out.test).push_back(samples_[order[i]]);
  }
  return out;
}

void Dataset::write_csv(std::ostream& out) const {
  util::CsvWriter writer(out);
  writer.write_row({"x", "y", "z", "ssid", "rss_dbm", "mac", "channel", "timestamp_s", "uav_id",
                    "waypoint_index"});
  for (const Sample& s : samples_) {
    writer.write_row({util::format("{:.4f}", s.position.x), util::format("{:.4f}", s.position.y),
                      util::format("{:.4f}", s.position.z), s.ssid,
                      util::format("{:.2f}", s.rss_dbm), s.mac.to_string(),
                      util::format("{}", s.channel), util::format("{:.3f}", s.timestamp_s),
                      util::format("{}", s.uav_id), util::format("{}", s.waypoint_index)});
  }
}

Dataset Dataset::read_csv(std::istream& in) {
  REMGEN_SCOPE("data.read_csv");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const util::CsvTable table = util::parse_csv(buffer.str());
  const auto& columns = sample_columns();
  std::array<int, kSampleColumnCount> idx{};
  for (std::size_t c = 0; c < columns.size(); ++c) {
    idx[c] = table.column_index(columns[c]);
    if (idx[c] < 0) throw std::runtime_error("dataset csv: missing column " + columns[c]);
  }
  Dataset out;
  std::vector<std::string> fields(kSampleColumnCount);
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const util::CsvRow& row = table.rows[r];
    // The reported line assumes one physical line per row (quoted embedded
    // newlines would shift it); row r follows the header on line r + 2.
    const std::size_t line = r + 2;
    if (row.size() != kSampleColumnCount) {
      throw std::runtime_error(util::format("dataset csv: line {}: expected {} columns, got {}",
                                            line, kSampleColumnCount, row.size()));
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
      fields[c] = row[static_cast<std::size_t>(idx[c])];
    }
    Sample s;
    std::string error;
    if (!parse_sample_fields(fields, line, &s, &error)) {
      throw std::runtime_error("dataset csv: " + error);
    }
    out.add(std::move(s));
  }
  return out;
}

}  // namespace remgen::data
