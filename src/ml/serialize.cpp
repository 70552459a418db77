#include "ml/serialize.hpp"

#include <stdexcept>

#include "ml/baseline.hpp"
#include "ml/idw.hpp"
#include "ml/knn.hpp"
#include "ml/kriging.hpp"
#include "ml/neural_net.hpp"
#include "ml/per_mac_knn.hpp"
#include "util/fmt.hpp"

namespace remgen::ml {

void save_model(util::BinaryWriter& w, const Estimator& model) {
  const auto* serializable = dynamic_cast<const Serializable*>(&model);
  if (serializable == nullptr) {
    throw std::runtime_error(
        util::format("model '{}' does not implement ml::Serializable", model.name()));
  }
  w.str(serializable->serial_tag());
  serializable->save(w);
}

std::unique_ptr<Estimator> load_model(util::BinaryReader& r) {
  const std::string tag = r.str();
  std::unique_ptr<Estimator> model;
  if (tag == "baseline-mean-per-mac") {
    model = std::make_unique<MeanPerMacBaseline>();
  } else if (tag == "knn") {
    model = std::make_unique<KnnRegressor>();
  } else if (tag == "per-mac-knn") {
    model = std::make_unique<PerMacKnn>();
  } else if (tag == "idw") {
    model = std::make_unique<IdwRegressor>();
  } else if (tag == "kriging") {
    model = std::make_unique<KrigingRegressor>();
  } else if (tag == "neural-net") {
    model = std::make_unique<NeuralNetRegressor>();
  } else {
    throw std::runtime_error(util::format("unknown model tag '{}' in snapshot", tag));
  }
  dynamic_cast<Serializable&>(*model).load(r);
  return model;
}

void save_mac(util::BinaryWriter& w, const radio::MacAddress& mac) {
  w.bytes(mac.octets().data(), kMacBytes);
}

radio::MacAddress load_mac(util::BinaryReader& r) {
  std::array<std::uint8_t, 6> octets{};
  r.bytes(octets.data(), octets.size());
  return radio::MacAddress(octets);
}

}  // namespace remgen::ml
