#include "ml/model_zoo.hpp"

#include "ml/baseline.hpp"
#include "ml/idw.hpp"
#include "ml/knn.hpp"
#include "ml/kriging.hpp"
#include "ml/neural_net.hpp"
#include "ml/per_mac_knn.hpp"

namespace remgen::ml {

std::vector<ModelKind> all_model_kinds(bool include_extensions) {
  std::vector<ModelKind> kinds{ModelKind::BaselineMeanPerMac, ModelKind::KnnK3Distance,
                               ModelKind::KnnScaled16, ModelKind::PerMacKnn,
                               ModelKind::NeuralNet16};
  if (include_extensions) {
    kinds.push_back(ModelKind::Idw);
    kinds.push_back(ModelKind::Kriging);
  }
  return kinds;
}

namespace {

std::unique_ptr<Estimator> construct(ModelKind kind) {
  switch (kind) {
    case ModelKind::BaselineMeanPerMac:
      return std::make_unique<MeanPerMacBaseline>();
    case ModelKind::KnnK3Distance: {
      KnnConfig config;
      config.n_neighbors = 3;
      config.weights = KnnWeights::Distance;
      config.minkowski_p = 2.0;
      config.features.mac_onehot_scale = 1.0;
      return std::make_unique<KnnRegressor>(config);
    }
    case ModelKind::KnnScaled16: {
      KnnConfig config;
      config.n_neighbors = 16;
      config.weights = KnnWeights::Distance;
      config.minkowski_p = 2.0;
      config.features.mac_onehot_scale = 3.0;
      return std::make_unique<KnnRegressor>(config);
    }
    case ModelKind::PerMacKnn: {
      KnnConfig config;
      config.n_neighbors = 3;
      config.weights = KnnWeights::Distance;
      config.minkowski_p = 2.0;
      return std::make_unique<PerMacKnn>(config);
    }
    case ModelKind::NeuralNet16: {
      NeuralNetConfig config;  // defaults are the paper's optimized network
      return std::make_unique<NeuralNetRegressor>(config);
    }
    case ModelKind::Idw:
      return std::make_unique<IdwRegressor>(IdwConfig{.power = 2.0, .max_neighbors = 16});
    case ModelKind::Kriging:
      return std::make_unique<KrigingRegressor>();
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Estimator> make_model(ModelKind kind) {
  std::unique_ptr<Estimator> model = construct(kind);
  model->kind_ = kind;
  return model;
}

const char* model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::BaselineMeanPerMac: return "baseline-mean-per-mac";
    case ModelKind::KnnK3Distance: return "knn-k3-distance";
    case ModelKind::KnnScaled16: return "knn-onehot-x3-k16";
    case ModelKind::PerMacKnn: return "per-mac-knn";
    case ModelKind::NeuralNet16: return "neural-net-16";
    case ModelKind::Idw: return "idw";
    case ModelKind::Kriging: return "kriging";
  }
  return "?";
}

std::optional<ModelKind> model_kind_from_name(std::string_view name) {
  for (const ModelKind kind : all_model_kinds(true)) {
    if (name == model_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace remgen::ml
