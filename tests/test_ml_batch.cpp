// The batched prediction contract: predict_batch(queries, out) must be
// bit-identical to calling predict() per query, for every estimator in the
// zoo and every kNN kernel variant (KD-tree and brute-force, uniform and
// distance weights, Minkowski p in {1, 2, 3}). The scalar predict() entry
// points delegate to batch-of-1 internally, so these tests pin down the
// remaining risk: batch-size-dependent state (scratch reuse, run-of-equal-MAC
// hoisting, hoisted dispatch constants) leaking into the results.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rem_builder.hpp"
#include "exec/config.hpp"
#include "ml/knn.hpp"
#include "ml/kriging.hpp"
#include "ml/model_zoo.hpp"
#include "util/rng.hpp"

namespace remgen::ml {
namespace {

constexpr const char* kMacA = "02:00:00:00:00:0a";
constexpr const char* kMacB = "02:00:00:00:00:0b";
constexpr const char* kMacC = "02:00:00:00:00:0c";
constexpr const char* kMacUnknown = "02:ff:ff:ff:ff:ff";

data::Sample make_sample(double x, double y, double z, const char* mac, double rss,
                         int channel = 6) {
  data::Sample s;
  s.position = {x, y, z};
  s.mac = *radio::MacAddress::parse(mac);
  s.channel = channel;
  s.rss_dbm = rss;
  return s;
}

/// Three APs on distinct channels with distinct spatial gradients.
std::vector<data::Sample> multi_mac_train(std::size_t per_mac, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<data::Sample> samples;
  for (std::size_t i = 0; i < per_mac; ++i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 3.0);
    const double z = rng.uniform(0.0, 2.0);
    samples.push_back(make_sample(x, y, z, kMacA, -50.0 - 4.0 * x + rng.gaussian(0, 0.5), 1));
    samples.push_back(make_sample(x, y, z, kMacB, -60.0 - 3.0 * y + rng.gaussian(0, 0.5), 6));
    samples.push_back(make_sample(x, y, z, kMacC, -70.0 - 2.0 * z + rng.gaussian(0, 0.5), 11));
  }
  return samples;
}

/// A query mix that exercises every batch-kernel special case: training
/// points (exact-hit early-out), off-grid points, runs of equal MACs (the
/// REM sweep's access pattern, which the kernels hoist lookups across),
/// MAC alternation (run boundaries), and an unknown MAC (fallback path).
std::vector<data::Sample> mixed_queries(std::span<const data::Sample> train,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<data::Sample> queries;
  for (std::size_t i = 0; i < 8 && i < train.size(); ++i) queries.push_back(train[i * 3]);
  for (const char* mac : {kMacA, kMacA, kMacA, kMacB, kMacA, kMacC, kMacC, kMacUnknown, kMacB}) {
    queries.push_back(make_sample(rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0),
                                  rng.uniform(0.0, 2.0), mac, 0.0,
                                  mac == kMacUnknown ? 13 : 6));
  }
  return queries;
}

void expect_batch_matches_scalar(const Estimator& model,
                                 std::span<const data::Sample> queries,
                                 const std::string& label) {
  std::vector<double> batched(queries.size(), 0.0);
  model.predict_batch(queries, batched);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // EXPECT_EQ on doubles is bitwise for non-NaN values — the contract is
    // bit-identity, not closeness.
    EXPECT_EQ(model.predict(queries[i]), batched[i]) << label << " query " << i;
  }
}

TEST(MlBatch, BatchMatchesScalarForEveryZooModel) {
  const auto train = multi_mac_train(30, 11);
  const auto queries = mixed_queries(train, 12);
  for (const ModelKind kind :
       {ModelKind::BaselineMeanPerMac, ModelKind::KnnK3Distance, ModelKind::KnnScaled16,
        ModelKind::PerMacKnn, ModelKind::NeuralNet16, ModelKind::Idw, ModelKind::Kriging}) {
    const std::unique_ptr<Estimator> model = make_model(kind);
    model->fit(train);
    expect_batch_matches_scalar(*model, queries, std::string(model_kind_name(kind)));
  }
}

TEST(MlBatch, KnnBatchMatchesScalarAcrossKernelVariants) {
  const auto train = multi_mac_train(25, 21);
  const auto queries = mixed_queries(train, 22);
  for (const KnnWeights weights : {KnnWeights::Uniform, KnnWeights::Distance}) {
    // KD-tree path: raw positions with p=2 admit the exact Euclidean tree.
    {
      KnnConfig config;
      config.n_neighbors = 4;
      config.weights = weights;
      config.features = {.include_mac_onehot = false};
      KnnRegressor knn(config);
      knn.fit(train);
      expect_batch_matches_scalar(knn, queries, "knn-tree");
    }
    // Brute path: the MAC one-hot block forces the linear scan, and each p picks
    // a different hoisted Minkowski dispatch (L1 / L2 / general).
    for (const double p : {1.0, 2.0, 3.0}) {
      KnnConfig config;
      config.n_neighbors = 5;
      config.weights = weights;
      config.minkowski_p = p;
      config.features = {.mac_onehot_scale = 3.0};
      KnnRegressor knn(config);
      knn.fit(train);
      expect_batch_matches_scalar(knn, queries, "knn-brute-p" + std::to_string(p));
    }
  }
}

TEST(MlBatch, KrigingSigmaBatchMatchesScalar) {
  const auto train = multi_mac_train(30, 31);
  const auto queries = mixed_queries(train, 32);
  KrigingRegressor kriging;
  kriging.fit(train);
  std::vector<KrigingRegressor::Prediction> batched(queries.size());
  kriging.predict_with_sigma_batch(queries, batched);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const KrigingRegressor::Prediction scalar = kriging.predict_with_sigma(queries[i]);
    EXPECT_EQ(scalar.value, batched[i].value) << "query " << i;
    EXPECT_EQ(scalar.sigma, batched[i].sigma) << "query " << i;
  }
}

/// Restores the configured width after each test so suites don't leak state.
class MlBatchThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = exec::thread_count(); }
  void TearDown() override { exec::set_thread_count(previous_); }

 private:
  std::size_t previous_ = 1;
};

TEST_F(MlBatchThreadsTest, BlockedRemSweepIsByteIdenticalAcrossThreadCounts) {
  data::Dataset ds;
  for (data::Sample& s : multi_mac_train(35, 61)) ds.add(std::move(s));
  core::RemBuilderConfig config;
  config.voxel_m = 0.25;  // Fine enough for several z-slabs and y-rows per MAC.
  config.min_samples_per_mac = 1;
  const auto rem_csv = [&](ModelKind kind) {
    const core::RadioEnvironmentMap rem =
        core::build_rem(ds, kind, geom::Aabb({0, 0, 0}, {4.0, 3.0, 2.0}), config);
    std::ostringstream out;
    rem.write_csv(out);
    return out.str();
  };
  // Kriging exercises the sigma sweep; KnnScaled16 the brute batch kernel.
  for (const ModelKind kind : {ModelKind::KnnScaled16, ModelKind::Kriging}) {
    exec::set_thread_count(1);
    const std::string sequential = rem_csv(kind);
    exec::set_thread_count(4);
    const std::string parallel = rem_csv(kind);
    EXPECT_EQ(sequential, parallel) << model_kind_name(kind);
  }
}

}  // namespace
}  // namespace remgen::ml
