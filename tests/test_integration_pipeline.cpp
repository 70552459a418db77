// End-to-end pipeline integration: scenario -> campaign -> preprocessing ->
// model evaluation -> REM, through the core facade.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"

namespace remgen::core {
namespace {

PipelineConfig small_pipeline() {
  PipelineConfig config;
  config.campaign.grid = {.nx = 3, .ny = 2, .nz = 2, .margin_m = 0.3};
  config.rem.min_samples_per_mac = 8;
  config.rem.voxel_m = 0.5;
  return config;
}

TEST(PipelineIntegration, ProducesAllArtifacts) {
  util::Rng rng(2022);
  const radio::Scenario scenario = radio::Scenario::make_apartment(rng);
  const PipelineResult result = run_pipeline(scenario, small_pipeline(), rng);

  EXPECT_FALSE(result.campaign.dataset.empty());
  EXPECT_FALSE(result.preprocessed.empty());
  EXPECT_LE(result.preprocessed.size(), result.campaign.dataset.size());
  EXPECT_GT(result.holdout.rmse, 0.0);
  EXPECT_LT(result.holdout.rmse, 12.0);
  ASSERT_TRUE(result.rem.has_value());
  EXPECT_FALSE(result.rem->macs().empty());
}

TEST(PipelineIntegration, PreprocessingDropsAreAccounted) {
  util::Rng rng(7);
  const radio::Scenario scenario = radio::Scenario::make_apartment(rng);
  const PipelineResult result = run_pipeline(scenario, small_pipeline(), rng);
  EXPECT_EQ(result.preprocessed.size() + result.dropped_samples,
            result.campaign.dataset.size());
}

TEST(PipelineIntegration, RemCoversScanVolume) {
  util::Rng rng(9);
  const radio::Scenario scenario = radio::Scenario::make_apartment(rng);
  const PipelineResult result = run_pipeline(scenario, small_pipeline(), rng);
  ASSERT_TRUE(result.rem.has_value());
  const geom::Aabb& bounds = result.rem->geometry().bounds();
  EXPECT_EQ(bounds.min, scenario.scan_volume().min);
  EXPECT_EQ(bounds.max, scenario.scan_volume().max);
  // Query anywhere inside: always answerable for a mapped MAC.
  const radio::MacAddress mac = result.rem->macs().front();
  EXPECT_TRUE(result.rem->query(mac, scenario.scan_volume().center()).has_value());
}

TEST(PipelineIntegration, ModelsPredictBetterThanChanceOnHoldout) {
  util::Rng rng(11);
  const radio::Scenario scenario = radio::Scenario::make_apartment(rng);
  PipelineConfig config = small_pipeline();
  config.model = ml::ModelKind::KnnScaled16;
  const PipelineResult result = run_pipeline(scenario, config, rng);
  // R^2 > 0.5: the REM genuinely explains the signal structure.
  EXPECT_GT(result.holdout.r2, 0.5);
}

TEST(PipelineIntegration, WorksWithEveryModelKind) {
  util::Rng rng(13);
  const radio::Scenario scenario = radio::Scenario::make_apartment(rng);
  for (const ml::ModelKind kind :
       {ml::ModelKind::BaselineMeanPerMac, ml::ModelKind::PerMacKnn, ml::ModelKind::Kriging}) {
    util::Rng run_rng = rng.fork(ml::model_kind_name(kind));
    PipelineConfig config = small_pipeline();
    config.model = kind;
    const PipelineResult result = run_pipeline(scenario, config, run_rng);
    EXPECT_TRUE(result.rem.has_value()) << ml::model_kind_name(kind);
    EXPECT_LT(result.holdout.rmse, 15.0) << ml::model_kind_name(kind);
  }
}

TEST(PipelineIntegration, GroundTruthReconstructionIsReasonable) {
  // The REM's predictions at voxel centres should be within a few dB of the
  // simulator's ground-truth mean RSS for well-sampled MACs.
  util::Rng rng(15);
  const radio::Scenario scenario = radio::Scenario::make_apartment(rng);
  PipelineConfig config = small_pipeline();
  const PipelineResult result = run_pipeline(scenario, config, rng);
  ASSERT_TRUE(result.rem.has_value());

  const auto& env = scenario.environment();
  double se = 0.0;
  std::size_t n = 0;
  for (std::size_t ap = 0; ap < env.access_points().size(); ++ap) {
    const radio::MacAddress mac = env.access_points()[ap].mac;
    const auto cell = result.rem->query(mac, scenario.scan_volume().center());
    if (!cell) continue;
    const double truth = env.mean_rss_dbm(ap, scenario.scan_volume().center());
    if (truth < -92.0) continue;  // unobservable: censored by the noise floor
    se += (cell->rss_dbm - truth) * (cell->rss_dbm - truth);
    ++n;
  }
  ASSERT_GT(n, 10u);
  EXPECT_LT(std::sqrt(se / static_cast<double>(n)), 9.0);  // coarse 12-waypoint campaign
}

}  // namespace
}  // namespace remgen::core
