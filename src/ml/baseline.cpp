#include "ml/baseline.hpp"

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

}  // namespace remgen::ml
