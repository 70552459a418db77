// k-nearest-neighbours regression, mirroring the scikit-learn configuration
// surface the paper tunes: metric=minkowski with exponent p, weights in
// {uniform, distance}, n_neighbors, and the feature-space tricks (one-hot
// encoded MAC block, optionally scaled).
#pragma once

#include <optional>
#include <vector>

#include "data/encoding.hpp"
#include "data/feature_matrix.hpp"
#include "ml/estimator.hpp"
#include "ml/kdtree.hpp"

namespace remgen::ml {

/// Neighbour weighting scheme.
enum class KnnWeights { Uniform, Distance };

/// kNN hyperparameters.
struct KnnConfig {
  std::size_t n_neighbors = 3;
  KnnWeights weights = KnnWeights::Distance;
  double minkowski_p = 2.0;  ///< p=2 is Euclidean (the paper's grid-search pick).
  data::FeatureConfig features{};  ///< Position + one-hot MAC by default.
};

/// Brute-force kNN regressor over the encoded feature space.
class KnnRegressor final : public Estimator {
 public:
  explicit KnnRegressor(const KnnConfig& config = {});

  void fit(std::span<const data::Sample> train) override;
  [[nodiscard]] double predict(const data::Sample& query) const override;
  /// Batched kernel: Minkowski dispatch, one-hot penalty constants, and
  /// scratch buffers are hoisted once per batch; the profile phase and
  /// predict counter fire once per batch instead of once per query.
  void predict_batch(std::span<const data::Sample> queries,
                     std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const KnnConfig& config() const noexcept { return config_; }

 private:
  KnnConfig config_;
  data::FeatureEncoder encoder_;
  /// Each training row's encoded position block (0 or 3 columns), row-major
  /// in one allocation so the brute scan is cache-linear. The MAC one-hot
  /// block is not stored: the brute kernel folds a row's whole block into an
  /// O(1) penalty term from the row's vocabulary index below.
  data::FeatureMatrix positions_;
  std::vector<double> targets_;
  std::vector<int> row_mac_;  ///< Per-row MAC vocab index (-1 if none).
  /// Engaged when the feature space is the raw (x, y, z) coordinates with
  /// p = 2: the Euclidean KD-tree query then returns the same neighbour set
  /// as the brute-force scan, at O(log n) per query instead of O(n).
  std::optional<KdTree> tree_;
  bool fitted_ = false;
};

/// Minkowski distance of order p between equal-length vectors.
[[nodiscard]] double minkowski_distance(std::span<const double> a, std::span<const double> b,
                                        double p);

}  // namespace remgen::ml
