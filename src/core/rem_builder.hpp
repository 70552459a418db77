// REM builder: trains an estimator on a sample dataset and rasterises its
// predictions onto a voxel grid over the scan volume.
#pragma once

#include <memory>

#include "core/rem.hpp"
#include "data/dataset.hpp"
#include "ml/estimator.hpp"
#include "ml/model_zoo.hpp"

namespace remgen::core {

/// Builder parameters.
struct RemBuilderConfig {
  double voxel_m = 0.25;            ///< Raster resolution.
  std::size_t min_samples_per_mac = 16;  ///< The paper's preprocessing rule.
};

/// Fits `estimator` on every row of `dataset` (no gate) and sweeps it over
/// `grid`, one layer per MAC in the rows. Kriging estimators additionally
/// populate per-cell uncertainty. A delta consumer, which knows the base
/// REM's grid but not the voxel size, rebuilds through here.
[[nodiscard]] RadioEnvironmentMap build_rem(const data::Dataset& dataset,
                                            ml::Estimator& estimator,
                                            const geom::GridGeometry& grid);

/// Builds a REM from a dataset with the given (unfitted) estimator: gates
/// the rows at config.min_samples_per_mac, then fits and sweeps as above on
/// the grid of config.voxel_m cells over `volume`.
[[nodiscard]] RadioEnvironmentMap build_rem(const data::Dataset& dataset,
                                            ml::Estimator& estimator, const geom::Aabb& volume,
                                            const RemBuilderConfig& config = {});

/// Convenience: builds with a model-zoo kind.
[[nodiscard]] RadioEnvironmentMap build_rem(const data::Dataset& dataset, ml::ModelKind kind,
                                            const geom::Aabb& volume,
                                            const RemBuilderConfig& config = {});

}  // namespace remgen::core
