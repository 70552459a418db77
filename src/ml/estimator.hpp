// Regression estimator interface for RSS prediction.
//
// Estimators consume training Samples directly and read only their position,
// MAC and RSS: a query is a MAC and a point, and a query Sample's other
// fields are ignored. Feature encoding is an implementation detail of each
// estimator, which keeps per-MAC model families natural to express.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/sample.hpp"

namespace remgen::ml {

/// The models compared in the paper's Figure 8, plus extensions (the model
/// zoo, ml/model_zoo.hpp).
enum class ModelKind {
  BaselineMeanPerMac,  ///< Mean per MAC (paper RMSE 4.8107 dBm).
  KnnK3Distance,       ///< kNN, k=3, distance weights, plain one-hot.
  KnnScaled16,         ///< kNN, one-hot x3, k=16 (paper's best, 4.4186 dBm).
  PerMacKnn,           ///< One kNN per MAC on coordinates only.
  NeuralNet16,         ///< 16-node sigmoid hidden layer, Adam (4.4870 dBm).
  Idw,                 ///< Extension: inverse distance weighting.
  Kriging,             ///< Extension: ordinary kriging.
};

/// A trainable RSS regressor.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Trains on the given samples. May be called once per instance.
  virtual void fit(std::span<const data::Sample> train) = 0;

  /// Predicts the RSS (dBm) for a query sample (its rss_dbm field is ignored).
  /// Only valid after fit().
  [[nodiscard]] virtual double predict(const data::Sample& query) const = 0;

  /// Predicts every query into `out` (same order; `out.size()` must equal
  /// `queries.size()`). Results are bit-identical to calling predict() per
  /// query: batching only hoists per-call overhead — profile phases and
  /// counters fire once per batch, scratch buffers and kernel dispatch are
  /// reused across the whole span. The base implementation loops over
  /// predict(); estimators override it with real batched kernels.
  virtual void predict_batch(std::span<const data::Sample> queries,
                             std::span<double> out) const;

  /// Short human-readable model name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// The zoo kind make_model() built this estimator as; empty for one
  /// constructed directly. A snapshot names its model by this kind.
  [[nodiscard]] std::optional<ModelKind> kind() const noexcept { return kind_; }

 private:
  friend std::unique_ptr<Estimator> make_model(ModelKind kind);
  std::optional<ModelKind> kind_;
};

/// Predicts every sample in `queries`.
[[nodiscard]] std::vector<double> predict_all(const Estimator& estimator,
                                              std::span<const data::Sample> queries);

}  // namespace remgen::ml
