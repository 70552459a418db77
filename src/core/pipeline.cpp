#include "core/pipeline.hpp"

#include "flightlog/flightlog.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace remgen::core {

PipelineResult run_pipeline(const radio::Scenario& scenario, const PipelineConfig& config,
                            util::Rng& rng) {
  REMGEN_SCOPE("core.run_pipeline");
  PipelineResult result;
  result.campaign = mission::run_campaign(scenario, config.campaign, rng);
  REMGEN_EXPECTS(!result.campaign.dataset.empty());
  REMGEN_FLIGHTLOG_CAMPAIGN(
      flightlog::EventKind::PipelineStage,
      flightlog::CampaignEvent{0, result.campaign.dataset.size(), 0, 0, "campaign"});

  result.preprocessed = result.campaign.dataset.filter_min_samples_per_mac(
      config.min_samples_per_mac, &result.dropped_samples);
  REMGEN_EXPECTS(!result.preprocessed.empty());
  REMGEN_COUNTER_ADD("pipeline.dropped_samples", result.dropped_samples);
  REMGEN_COUNTER_ADD("pipeline.preprocessed_samples", result.preprocessed.size());
  REMGEN_FLIGHTLOG_CAMPAIGN(
      flightlog::EventKind::PipelineStage,
      flightlog::CampaignEvent{0, result.preprocessed.size(), 0, 0, "preprocess"});

  // Held-out evaluation of the configured model.
  util::Rng split_rng = rng.fork("train-test-split");
  const data::DatasetSplit split = result.preprocessed.split(config.train_fraction, split_rng);
  const std::unique_ptr<ml::Estimator> estimator = ml::make_model(config.model);
  {
    REMGEN_SCOPE("ml.fit");
    estimator->fit(split.train);
  }
  {
    REMGEN_SCOPE("ml.evaluate");
    result.holdout = ml::evaluate(*estimator, split.test);
  }
  REMGEN_GAUGE_SET("pipeline.holdout_rmse_dbm", result.holdout.rmse);
  REMGEN_GAUGE_SET("pipeline.holdout_mae_dbm", result.holdout.mae);
  util::logf(util::LogLevel::Info, "pipeline", "{}: holdout RMSE {:.3f} dBm",
             estimator->name(), result.holdout.rmse);
  REMGEN_FLIGHTLOG_CAMPAIGN(
      flightlog::EventKind::PipelineStage,
      flightlog::CampaignEvent{0, split.test.size(), 0, 0, "evaluate"});

  // The deliverable REM is built on all preprocessed data.
  RemBuilderConfig rem_config = config.rem;
  rem_config.min_samples_per_mac = config.min_samples_per_mac;
  result.rem = build_rem(result.preprocessed, config.model, scenario.scan_volume(), rem_config);
  REMGEN_COUNTER_ADD("pipeline.runs", 1);
  REMGEN_FLIGHTLOG_CAMPAIGN(flightlog::EventKind::PipelineStage,
                            flightlog::CampaignEvent{0, 0, 0, 0, "rem_build"});
  return result;
}

}  // namespace remgen::core
