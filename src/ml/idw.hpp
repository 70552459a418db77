// Inverse-distance-weighting interpolation (extension beyond the paper's
// estimator set): the classic geostatistical baseline for radio-map
// interpolation, fitted per MAC address on the (x, y, z) coordinates.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "ml/baseline.hpp"
#include "ml/estimator.hpp"
#include "ml/kdtree.hpp"

namespace remgen::ml {

/// IDW hyperparameters.
struct IdwConfig {
  double power = 2.0;          ///< Weight exponent: w = 1 / d^power.
  std::size_t max_neighbors = 0;  ///< 0 = use every sample of the MAC.
};

/// Per-MAC inverse distance weighting with mean-per-MAC fallback.
class IdwRegressor final : public Estimator {
 public:
  explicit IdwRegressor(const IdwConfig& config = {});

  void fit(std::span<const data::Sample> train) override;
  [[nodiscard]] double predict(const data::Sample& query) const override;
  /// Batched kernel: the weight-exponent dispatch (power 2/1/general) and
  /// the per-MAC hash lookup (for runs of equal-MAC queries) are hoisted out
  /// of the per-query loop; profile phase fires once per batch.
  void predict_batch(std::span<const data::Sample> queries,
                     std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  struct MacData {
    std::vector<geom::Vec3> positions;
    std::vector<double> values;
    /// Built when max_neighbors > 0: neighbour selection goes through the
    /// tree instead of a full scan + nth_element per query.
    std::optional<KdTree> tree;
  };

  IdwConfig config_;
  std::unordered_map<radio::MacAddress, MacData> per_mac_;
  MeanPerMacBaseline fallback_;
};

}  // namespace remgen::ml
