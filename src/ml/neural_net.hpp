// Dense feed-forward neural network regressor with the Adam optimizer.
//
// The paper's optimized network: inputs are the (normalized) x, y, z
// coordinates and the one-hot encoded MAC address; one hidden layer of 16
// fully connected nodes with sigmoid activation; a single linear output
// node; Adam optimizer; RSS targets standardized during training.
#pragma once

#include <cstdint>
#include <vector>

#include "data/encoding.hpp"
#include "ml/estimator.hpp"
#include "util/rng.hpp"

namespace remgen::ml {

/// Hidden-layer activation.
enum class Activation { Sigmoid, Relu, Tanh };

/// Network and training hyperparameters.
struct NeuralNetConfig {
  std::vector<std::size_t> hidden_layers{16};
  Activation activation = Activation::Sigmoid;
  double learning_rate = 0.01;
  std::size_t epochs = 200;
  std::size_t batch_size = 32;
  double adam_beta1 = 0.9;
  double adam_beta2 = 0.999;
  double adam_epsilon = 1e-8;
  std::uint64_t seed = 42;
  data::FeatureConfig features{.include_position = true,
                               .include_mac_onehot = true,
                               .mac_onehot_scale = 1.0,
                               .normalize_position = true};
};

/// Multi-layer perceptron trained with minibatch Adam on MSE loss.
class NeuralNetRegressor final : public Estimator {
 public:
  explicit NeuralNetRegressor(const NeuralNetConfig& config = {});

  void fit(std::span<const data::Sample> train) override;
  [[nodiscard]] double predict(const data::Sample& query) const override;
  /// Batched inference: encode-into-scratch plus ping-pong layer buffers —
  /// zero allocations per query once warm; phase/counter fire once per batch.
  /// Arithmetic is identical to forward(), so results are bit-identical.
  void predict_batch(std::span<const data::Sample> queries,
                     std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

  /// Mean squared training loss (standardized targets) after the last epoch.
  [[nodiscard]] double final_training_loss() const noexcept { return final_loss_; }

 private:
  /// One dense layer y = act(W x + b) with Adam moment buffers.
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<double> w;  ///< out x in, row-major.
    std::vector<double> b;  ///< out.
    std::vector<double> mw, vw, mb, vb;  ///< Adam moments.
    bool linear = false;    ///< Output layer has no activation.
  };

  [[nodiscard]] std::vector<double> forward(const std::vector<double>& input,
                                            std::vector<std::vector<double>>* activations) const;
  [[nodiscard]] double activate(double x) const;
  [[nodiscard]] double activate_grad(double y) const;  ///< From the activation output.

  NeuralNetConfig config_;
  data::FeatureEncoder encoder_;
  data::TargetScaler target_scaler_;
  std::vector<Layer> layers_;
  double final_loss_ = 0.0;
  bool fitted_ = false;
};

}  // namespace remgen::ml
