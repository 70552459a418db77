// Per-MAC kNN ensemble: the paper's "intuitive alternative to assigning
// samples with different MAC addresses a greater distance" — one kNN
// regressor per MAC address, each trained only on that MAC's samples with the
// feature set reduced to the (x, y, z) coordinates.
#pragma once

#include <memory>
#include <unordered_map>

#include "ml/baseline.hpp"
#include "ml/knn.hpp"

namespace remgen::ml {

/// One kNN model per MAC; falls back to the mean-per-MAC baseline when a
/// query's MAC was unseen during training.
class PerMacKnn final : public Estimator {
 public:
  /// `config.features` is overridden to coordinates-only internally.
  explicit PerMacKnn(const KnnConfig& config = {});

  void fit(std::span<const data::Sample> train) override;
  [[nodiscard]] double predict(const data::Sample& query) const override;
  /// Batched delegation: runs of equal-MAC queries become one sub-span
  /// predict_batch on the owning per-MAC model (one hash lookup per run),
  /// which is exactly the REM sweep's access pattern.
  void predict_batch(std::span<const data::Sample> queries,
                     std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  KnnConfig config_;
  std::unordered_map<radio::MacAddress, std::unique_ptr<KnnRegressor>> models_;
  MeanPerMacBaseline fallback_;
};

}  // namespace remgen::ml
