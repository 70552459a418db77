#include "ml/neural_net.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"

namespace remgen::ml {

NeuralNetRegressor::NeuralNetRegressor(const NeuralNetConfig& config)
    : config_(config), encoder_(), target_scaler_() {
  REMGEN_EXPECTS(config.learning_rate > 0.0);
  REMGEN_EXPECTS(config.epochs > 0);
  REMGEN_EXPECTS(config.batch_size > 0);
}

double NeuralNetRegressor::activate(double x) const {
  switch (config_.activation) {
    case Activation::Sigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::Relu: return x > 0.0 ? x : 0.0;
    case Activation::Tanh: return std::tanh(x);
  }
  return x;
}

double NeuralNetRegressor::activate_grad(double y) const {
  switch (config_.activation) {
    case Activation::Sigmoid: return y * (1.0 - y);
    case Activation::Relu: return y > 0.0 ? 1.0 : 0.0;
    case Activation::Tanh: return 1.0 - y * y;
  }
  return 1.0;
}

std::vector<double> NeuralNetRegressor::forward(
    const std::vector<double>& input, std::vector<std::vector<double>>* activations) const {
  std::vector<double> current = input;
  if (activations != nullptr) activations->push_back(current);
  for (const Layer& layer : layers_) {
    std::vector<double> next(layer.out, 0.0);
    for (std::size_t o = 0; o < layer.out; ++o) {
      double z = layer.b[o];
      const double* row = layer.w.data() + o * layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) z += row[i] * current[i];
      next[o] = layer.linear ? z : activate(z);
    }
    current = std::move(next);
    if (activations != nullptr) activations->push_back(current);
  }
  return current;
}

void NeuralNetRegressor::fit(std::span<const data::Sample> train) {
  REMGEN_EXPECTS(!train.empty());
  REMGEN_SCOPE("ml.nn.fit");
  REMGEN_COUNTER_ADD("ml.nn.fits", 1);
  encoder_ = data::FeatureEncoder::fit(train, config_.features);
  const std::vector<std::vector<double>> features = encoder_.encode_all(train);
  std::vector<double> raw_targets = data::rss_targets(train);
  target_scaler_ = data::TargetScaler::fit(raw_targets);
  std::vector<double> targets(raw_targets.size());
  for (std::size_t i = 0; i < raw_targets.size(); ++i) {
    targets[i] = target_scaler_.transform(raw_targets[i]);
  }

  // Build layers: input -> hidden... -> 1 linear output.
  util::Rng rng(config_.seed);
  layers_.clear();
  std::size_t prev = encoder_.dimension();
  std::vector<std::size_t> sizes = config_.hidden_layers;
  sizes.push_back(1);
  for (std::size_t li = 0; li < sizes.size(); ++li) {
    Layer layer;
    layer.in = prev;
    layer.out = sizes[li];
    layer.linear = (li == sizes.size() - 1);
    // Xavier/Glorot uniform initialisation.
    const double limit = std::sqrt(6.0 / static_cast<double>(layer.in + layer.out));
    layer.w.resize(layer.in * layer.out);
    for (double& w : layer.w) w = rng.uniform(-limit, limit);
    layer.b.assign(layer.out, 0.0);
    layer.mw.assign(layer.w.size(), 0.0);
    layer.vw.assign(layer.w.size(), 0.0);
    layer.mb.assign(layer.out, 0.0);
    layer.vb.assign(layer.out, 0.0);
    prev = layer.out;
    layers_.push_back(std::move(layer));
  }

  const std::size_t n = features.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  std::size_t adam_step = 0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    REMGEN_COUNTER_ADD("ml.nn.epochs", 1);
    rng.shuffle(order);
    double epoch_loss = 0.0;

    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(start + config_.batch_size, n);
      const double batch_n = static_cast<double>(end - start);

      // Accumulate gradients over the minibatch.
      std::vector<std::vector<double>> grad_w(layers_.size());
      std::vector<std::vector<double>> grad_b(layers_.size());
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        grad_w[l].assign(layers_[l].w.size(), 0.0);
        grad_b[l].assign(layers_[l].b.size(), 0.0);
      }

      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t idx = order[bi];
        std::vector<std::vector<double>> acts;
        const std::vector<double> out = forward(features[idx], &acts);
        const double err = out[0] - targets[idx];
        epoch_loss += err * err;

        // Backprop: delta at the output (MSE, linear output).
        std::vector<double> delta{2.0 * err / batch_n};
        for (std::size_t li = layers_.size(); li-- > 0;) {
          const Layer& layer = layers_[li];
          const std::vector<double>& input = acts[li];
          const std::vector<double>& output = acts[li + 1];

          // dL/dz for this layer (delta currently holds dL/d(output)).
          std::vector<double> dz(layer.out);
          for (std::size_t o = 0; o < layer.out; ++o) {
            dz[o] = delta[o] * (layer.linear ? 1.0 : activate_grad(output[o]));
          }
          for (std::size_t o = 0; o < layer.out; ++o) {
            grad_b[li][o] += dz[o];
            double* grow = grad_w[li].data() + o * layer.in;
            for (std::size_t i = 0; i < layer.in; ++i) grow[i] += dz[o] * input[i];
          }
          if (li > 0) {
            std::vector<double> prev_delta(layer.in, 0.0);
            for (std::size_t o = 0; o < layer.out; ++o) {
              const double* row = layer.w.data() + o * layer.in;
              for (std::size_t i = 0; i < layer.in; ++i) prev_delta[i] += row[i] * dz[o];
            }
            delta = std::move(prev_delta);
          }
        }
      }

      // Adam update.
      ++adam_step;
      const double b1 = config_.adam_beta1;
      const double b2 = config_.adam_beta2;
      const double bias1 = 1.0 - std::pow(b1, static_cast<double>(adam_step));
      const double bias2 = 1.0 - std::pow(b2, static_cast<double>(adam_step));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        auto update = [&](std::vector<double>& param, std::vector<double>& m,
                          std::vector<double>& v, const std::vector<double>& g) {
          for (std::size_t i = 0; i < param.size(); ++i) {
            m[i] = b1 * m[i] + (1.0 - b1) * g[i];
            v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
            const double mhat = m[i] / bias1;
            const double vhat = v[i] / bias2;
            param[i] -= config_.learning_rate * mhat / (std::sqrt(vhat) + config_.adam_epsilon);
          }
        };
        update(layer.w, layer.mw, layer.vw, grad_w[l]);
        update(layer.b, layer.mb, layer.vb, grad_b[l]);
      }
    }
    final_loss_ = epoch_loss / static_cast<double>(n);
  }
  fitted_ = true;
}

double NeuralNetRegressor::predict(const data::Sample& query) const {
  double out = 0.0;
  predict_batch({&query, 1}, {&out, 1});
  return out;
}

void NeuralNetRegressor::predict_batch(std::span<const data::Sample> queries,
                                       std::span<double> out) const {
  REMGEN_EXPECTS(fitted_);
  REMGEN_EXPECTS(queries.size() == out.size());
  if (queries.empty()) return;
  REMGEN_SCOPE("ml.nn.predict");
  REMGEN_COUNTER_ADD("ml.nn.predicts", queries.size());
  // Ping-pong layer buffers, per-thread: the whole batch runs without a
  // single heap allocation once the buffers are warm. The accumulation order
  // matches forward() exactly, so predictions are bit-identical to it.
  thread_local std::vector<double> current;
  thread_local std::vector<double> next;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    current.resize(encoder_.dimension());
    encoder_.encode_into(queries[qi], current);
    for (const Layer& layer : layers_) {
      next.resize(layer.out);
      for (std::size_t o = 0; o < layer.out; ++o) {
        double z = layer.b[o];
        const double* row = layer.w.data() + o * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i) z += row[i] * current[i];
        next[o] = layer.linear ? z : activate(z);
      }
      std::swap(current, next);
    }
    out[qi] = target_scaler_.inverse(current[0]);
  }
}

void NeuralNetRegressor::save(util::BinaryWriter& w) const {
  REMGEN_EXPECTS(fitted_);
  w.u64(config_.hidden_layers.size());
  for (const std::size_t h : config_.hidden_layers) w.u64(h);
  w.u8(static_cast<std::uint8_t>(config_.activation));
  w.f64(config_.learning_rate);
  w.u64(config_.epochs);
  w.u64(config_.batch_size);
  w.f64(config_.adam_beta1);
  w.f64(config_.adam_beta2);
  w.f64(config_.adam_epsilon);
  w.u64(config_.seed);
  data::save_feature_config(w, config_.features);
  encoder_.save(w);
  target_scaler_.save(w);
  w.f64(final_loss_);
  w.u64(layers_.size());
  for (const Layer& layer : layers_) {
    w.u64(layer.in);
    w.u64(layer.out);
    w.u8(layer.linear ? 1 : 0);
    for (const double v : layer.w) w.f64(v);
    for (const double v : layer.b) w.f64(v);
  }
}

void NeuralNetRegressor::load(util::BinaryReader& r) {
  config_.hidden_layers.resize(r.count(8));
  for (std::size_t& h : config_.hidden_layers) h = r.u64();
  config_.activation = static_cast<Activation>(r.u8());
  config_.learning_rate = r.f64();
  config_.epochs = r.u64();
  config_.batch_size = r.u64();
  config_.adam_beta1 = r.f64();
  config_.adam_beta2 = r.f64();
  config_.adam_epsilon = r.f64();
  config_.seed = r.u64();
  config_.features = data::load_feature_config(r);
  encoder_ = data::FeatureEncoder::load(r);
  target_scaler_ = data::TargetScaler::load(r);
  final_loss_ = r.f64();
  layers_.resize(r.count(2 * 8 + 1));
  for (Layer& layer : layers_) {
    // Each output carries `in` weights and a bias, all f64.
    layer.in = r.count(8);
    layer.out = r.count((layer.in + 1) * 8);
    layer.linear = r.u8() != 0;
    layer.w.resize(layer.in * layer.out);
    for (double& v : layer.w) v = r.f64();
    layer.b.resize(layer.out);
    for (double& v : layer.b) v = r.f64();
    // Moments are reset: they only matter to a fit() that would restart
    // training, which re-initialises them anyway.
    layer.mw.assign(layer.w.size(), 0.0);
    layer.vw.assign(layer.w.size(), 0.0);
    layer.mb.assign(layer.out, 0.0);
    layer.vb.assign(layer.out, 0.0);
  }
  fitted_ = true;
}

std::string NeuralNetRegressor::name() const {
  std::string arch;
  for (const std::size_t h : config_.hidden_layers) {
    if (!arch.empty()) arch += "-";
    arch += util::format("{}", h);
  }
  const char* act = config_.activation == Activation::Sigmoid  ? "sigmoid"
                    : config_.activation == Activation::Relu ? "relu"
                                                             : "tanh";
  return util::format("neural-net({},{},adam)", arch, act);
}

}  // namespace remgen::ml
