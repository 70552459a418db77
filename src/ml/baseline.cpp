#include "ml/baseline.hpp"

#include <map>

#include "obs/scope.hpp"
#include "util/contracts.hpp"

namespace remgen::ml {

void MeanPerMacBaseline::fit(std::span<const data::Sample> train) {
  REMGEN_EXPECTS(!train.empty());
  std::unordered_map<radio::MacAddress, std::pair<double, std::size_t>> acc;
  double total = 0.0;
  for (const data::Sample& s : train) {
    auto& [sum, count] = acc[s.mac];
    sum += s.rss_dbm;
    ++count;
    total += s.rss_dbm;
  }
  mean_per_mac_.clear();
  for (const auto& [mac, sum_count] : acc) {
    mean_per_mac_[mac] = sum_count.first / static_cast<double>(sum_count.second);
  }
  global_mean_ = total / static_cast<double>(train.size());
}

double MeanPerMacBaseline::predict(const data::Sample& query) const {
  double out = 0.0;
  predict_batch({&query, 1}, {&out, 1});
  return out;
}

void MeanPerMacBaseline::predict_batch(std::span<const data::Sample> queries,
                                       std::span<double> out) const {
  REMGEN_EXPECTS(queries.size() == out.size());
  if (queries.empty()) return;
  REMGEN_SCOPE("ml.baseline.predict");
  double mean = global_mean_;
  const radio::MacAddress* run_mac = nullptr;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const data::Sample& query = queries[qi];
    if (run_mac == nullptr || !(query.mac == *run_mac)) {
      const auto it = mean_per_mac_.find(query.mac);
      mean = it == mean_per_mac_.end() ? global_mean_ : it->second;
      run_mac = &query.mac;
    }
    out[qi] = mean;
  }
}

void MeanPerMacBaseline::save(util::BinaryWriter& w) const {
  w.f64(global_mean_);
  // MAC-sorted so repeated saves of the same model are byte-identical.
  std::map<radio::MacAddress, double> sorted(mean_per_mac_.begin(), mean_per_mac_.end());
  w.u64(sorted.size());
  for (const auto& [mac, mean] : sorted) {
    save_mac(w, mac);
    w.f64(mean);
  }
}

void MeanPerMacBaseline::load(util::BinaryReader& r) {
  global_mean_ = r.f64();
  mean_per_mac_.clear();
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const radio::MacAddress mac = load_mac(r);
    mean_per_mac_[mac] = r.f64();
  }
}

}  // namespace remgen::ml
