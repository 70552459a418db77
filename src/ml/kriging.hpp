// Ordinary kriging (extension beyond the paper's estimator set).
//
// Kriging is the canonical geostatistical interpolator for radio
// environmental maps: it models the RSS field per transmitter as a
// second-order stationary random field, fits an exponential semivariogram to
// the training data, and predicts with best-linear-unbiased weights solved
// from the kriging system. One model is fitted per MAC address on the
// (x, y, z) coordinates; prediction additionally exposes the kriging variance
// used by the REM to report uncertainty.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "ml/baseline.hpp"
#include "ml/estimator.hpp"
#include "ml/kdtree.hpp"

namespace remgen::ml {

/// Exponential semivariogram: gamma(h) = nugget + partial_sill * (1 - exp(-h / range)).
struct Variogram {
  double nugget = 0.0;
  double partial_sill = 1.0;
  double range_m = 1.0;

  /// Semivariance at lag h (>= 0).
  [[nodiscard]] double gamma(double h) const;

  /// Covariance at lag h: C(h) = sill_total - gamma(h).
  [[nodiscard]] double covariance(double h) const;
};

/// Fits an exponential variogram to empirical (lag, semivariance) pairs by a
/// coarse grid search over (nugget, range) with the sill set to the sample
/// variance. `lags`/`gammas` must be equal-sized and non-empty.
[[nodiscard]] Variogram fit_variogram(const std::vector<double>& lags,
                                      const std::vector<double>& gammas, double sample_variance);

/// Kriging hyperparameters.
struct KrigingConfig {
  std::size_t max_neighbors = 24;  ///< Local kriging neighbourhood size.
  std::size_t variogram_bins = 12;
  std::size_t min_samples = 4;     ///< Below this, fall back to the MAC mean.
};

/// Per-MAC ordinary kriging with mean-per-MAC fallback.
class KrigingRegressor final : public Estimator {
 public:
  explicit KrigingRegressor(const KrigingConfig& config = {});

  void fit(std::span<const data::Sample> train) override;
  [[nodiscard]] double predict(const data::Sample& query) const override;
  /// Batched kernel: per-MAC model lookup is hoisted across runs of
  /// equal-MAC queries, the KD-tree scratch is batch-reused, and the profile
  /// phase/counter fire once per batch.
  void predict_batch(std::span<const data::Sample> queries,
                     std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

  /// Prediction plus kriging standard deviation (uncertainty). The deviation
  /// is 0 for fallback predictions.
  struct Prediction {
    double value;
    double sigma;
  };
  [[nodiscard]] Prediction predict_with_sigma(const data::Sample& query) const;

  /// Batched variant of predict_with_sigma() — the REM builder's uncertainty
  /// sweep path. `out.size()` must equal `queries.size()`; results are
  /// bit-identical to the scalar call.
  void predict_with_sigma_batch(std::span<const data::Sample> queries,
                                std::span<Prediction> out) const;

  /// Fitted variogram for a MAC (empty if the MAC fell back to the mean).
  [[nodiscard]] std::optional<Variogram> variogram_for(const radio::MacAddress& mac) const;

 private:
  struct MacModel {
    std::vector<geom::Vec3> positions;
    std::vector<double> values;
    double mean = 0.0;
    Variogram variogram;
    std::unique_ptr<KdTree> tree;
  };

  [[nodiscard]] Prediction krige(const MacModel& model, const geom::Vec3& at,
                                 KdQueryScratch& scratch) const;

  KrigingConfig config_;
  std::unordered_map<radio::MacAddress, MacModel> models_;
  MeanPerMacBaseline fallback_;
};

}  // namespace remgen::ml
