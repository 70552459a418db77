// End-to-end pipeline facade: scenario -> UAV campaign -> preprocessing ->
// model training/evaluation -> REM. This is the one-call version of the
// paper's full toolchain.
#pragma once

#include <optional>

#include "core/rem.hpp"
#include "core/rem_builder.hpp"
#include "mission/campaign.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "radio/scenario.hpp"
#include "util/rng.hpp"

namespace remgen::core {

/// Full-pipeline configuration.
struct PipelineConfig {
  mission::CampaignConfig campaign;
  double train_fraction = 0.75;          ///< The paper's 75/25 split.
  ml::ModelKind model = ml::ModelKind::KnnScaled16;  ///< Paper's best model.
  /// Raster resolution, and the min-samples-per-MAC gate (paper: 16) of both
  /// the preprocessing and the REM.
  RemBuilderConfig rem;
};

/// Everything the pipeline produces.
struct PipelineResult {
  mission::CampaignResult campaign;
  data::Dataset preprocessed;          ///< After the min-samples-per-MAC rule.
  std::size_t dropped_samples = 0;
  ml::RegressionMetrics holdout;       ///< On the 25% test split.
  std::optional<RadioEnvironmentMap> rem;  ///< Built on the full dataset.
};

/// Runs campaign, preprocessing, model evaluation and REM construction.
[[nodiscard]] PipelineResult run_pipeline(const radio::Scenario& scenario,
                                          const PipelineConfig& config, util::Rng& rng);

}  // namespace remgen::core
