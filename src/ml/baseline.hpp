// The paper's baseline estimator: always predicts the per-MAC mean RSS
// (global mean for MACs unseen in training).
#pragma once

#include <unordered_map>

#include "ml/estimator.hpp"
#include "radio/mac_address.hpp"

namespace remgen::ml {

/// Mean-per-MAC baseline ("the predictor generally utilizing the mean per
/// MAC address", paper RMSE 4.8107 dBm).
class MeanPerMacBaseline final : public Estimator {
 public:
  void fit(std::span<const data::Sample> train) override;
  [[nodiscard]] double predict(const data::Sample& query) const override;
  /// Batched lookup: profile phase fires once per batch, and runs of
  /// equal-MAC queries reuse one hash lookup.
  void predict_batch(std::span<const data::Sample> queries,
                     std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "baseline-mean-per-mac"; }

 private:
  std::unordered_map<radio::MacAddress, double> mean_per_mac_;
  double global_mean_ = 0.0;
};

}  // namespace remgen::ml
