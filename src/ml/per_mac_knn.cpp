#include "ml/per_mac_knn.hpp"

#include <map>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"

namespace remgen::ml {

PerMacKnn::PerMacKnn(const KnnConfig& config) : config_(config) {
  // Samples with the same MAC only: the one-hot block is constant within a
  // group, so the feature set reduces to the coordinates. With p=2 that is
  // exactly the shape KnnRegressor accelerates with its KD-tree, so every
  // per-MAC model queries in O(log n).
  config_.features.include_position = true;
  config_.features.include_mac_onehot = false;
}

void PerMacKnn::fit(std::span<const data::Sample> train) {
  REMGEN_EXPECTS(!train.empty());
  REMGEN_SCOPE("ml.per_mac_knn.fit");
  REMGEN_COUNTER_ADD("ml.per_mac_knn.fits", 1);
  fallback_.fit(train);

  std::map<radio::MacAddress, std::vector<data::Sample>> groups;
  for (const data::Sample& s : train) groups[s.mac].push_back(s);

  // Per-MAC models are independent, so refits (the ingest epoch path hits
  // this on every epoch) fan out across the exec pool. Groups are fitted in
  // MAC-sorted slot order and inserted sequentially afterwards — the fitted
  // ensemble is byte-identical at any thread count.
  std::vector<const std::vector<data::Sample>*> group_samples;
  std::vector<radio::MacAddress> group_macs;
  group_samples.reserve(groups.size());
  group_macs.reserve(groups.size());
  for (const auto& [mac, samples] : groups) {
    group_macs.push_back(mac);
    group_samples.push_back(&samples);
  }
  std::vector<std::unique_ptr<KnnRegressor>> fitted = exec::parallel_map(
      group_samples.size(),
      [&](std::size_t g) {
        auto model = std::make_unique<KnnRegressor>(config_);
        model->fit(*group_samples[g]);
        return model;
      },
      /*chunk=*/1, "ml.per_mac_knn.fit");

  models_.clear();
  for (std::size_t g = 0; g < group_macs.size(); ++g) {
    models_[group_macs[g]] = std::move(fitted[g]);
  }
}

double PerMacKnn::predict(const data::Sample& query) const {
  double out = 0.0;
  predict_batch({&query, 1}, {&out, 1});
  return out;
}

void PerMacKnn::predict_batch(std::span<const data::Sample> queries,
                              std::span<double> out) const {
  REMGEN_EXPECTS(queries.size() == out.size());
  if (queries.empty()) return;
  REMGEN_SCOPE("ml.per_mac_knn.predict");
  REMGEN_COUNTER_ADD("ml.per_mac_knn.predicts", queries.size());
  // Chop the batch into maximal runs of equal MAC and hand each run to the
  // owning model's batched kernel in one call.
  std::size_t begin = 0;
  while (begin < queries.size()) {
    std::size_t end = begin + 1;
    while (end < queries.size() && queries[end].mac == queries[begin].mac) ++end;
    const auto it = models_.find(queries[begin].mac);
    const std::span<const data::Sample> run = queries.subspan(begin, end - begin);
    const std::span<double> run_out = out.subspan(begin, end - begin);
    if (it == models_.end()) {
      fallback_.predict_batch(run, run_out);
    } else {
      it->second->predict_batch(run, run_out);
    }
    begin = end;
  }
}

std::string PerMacKnn::name() const {
  return util::format("per-mac-knn(k={},weights={})", config_.n_neighbors,
                      config_.weights == KnnWeights::Distance ? "distance" : "uniform");
}

}  // namespace remgen::ml
