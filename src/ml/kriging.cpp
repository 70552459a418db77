#include "ml/kriging.hpp"

#include <algorithm>
#include <cmath>

#include "math/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"

namespace remgen::ml {

double Variogram::gamma(double h) const {
  if (h <= 0.0) return 0.0;
  return nugget + partial_sill * (1.0 - std::exp(-h / range_m));
}

double Variogram::covariance(double h) const {
  return (nugget + partial_sill) - gamma(h);
}

Variogram fit_variogram(const std::vector<double>& lags, const std::vector<double>& gammas,
                        double sample_variance) {
  REMGEN_EXPECTS(!lags.empty());
  REMGEN_EXPECTS(lags.size() == gammas.size());
  const double sill = std::max(sample_variance, 1e-6);
  const double max_lag = *std::max_element(lags.begin(), lags.end());

  Variogram best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int ni = 0; ni <= 10; ++ni) {
    const double nugget = sill * 0.08 * ni;  // 0 .. 80% of the sill
    const double partial = std::max(sill - nugget, 1e-9);
    for (int ri = 1; ri <= 20; ++ri) {
      const double range = max_lag * 0.1 * ri;  // 10% .. 200% of max lag
      Variogram v{nugget, partial, range};
      double cost = 0.0;
      for (std::size_t i = 0; i < lags.size(); ++i) {
        const double e = v.gamma(lags[i]) - gammas[i];
        cost += e * e;
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = v;
      }
    }
  }
  return best;
}

KrigingRegressor::KrigingRegressor(const KrigingConfig& config) : config_(config) {
  REMGEN_EXPECTS(config.max_neighbors >= 2);
  REMGEN_EXPECTS(config.variogram_bins >= 2);
}

void KrigingRegressor::fit(std::span<const data::Sample> train) {
  REMGEN_EXPECTS(!train.empty());
  REMGEN_SCOPE("ml.kriging.fit");
  REMGEN_COUNTER_ADD("ml.kriging.fits", 1);
  fallback_.fit(train);
  models_.clear();

  std::unordered_map<radio::MacAddress, std::vector<const data::Sample*>> groups;
  for (const data::Sample& s : train) groups[s.mac].push_back(&s);

  for (auto& [mac, samples] : groups) {
    if (samples.size() < config_.min_samples) continue;
    MacModel model;
    model.positions.reserve(samples.size());
    model.values.reserve(samples.size());
    double mean = 0.0;
    for (const data::Sample* s : samples) {
      model.positions.push_back(s->position);
      model.values.push_back(s->rss_dbm);
      mean += s->rss_dbm;
    }
    mean /= static_cast<double>(samples.size());
    model.mean = mean;
    double variance = 0.0;
    for (const double v : model.values) variance += (v - mean) * (v - mean);
    variance /= static_cast<double>(model.values.size());

    // Empirical semivariogram over all pairs, binned by lag.
    double max_lag = 0.0;
    for (std::size_t i = 0; i < model.positions.size(); ++i) {
      for (std::size_t j = i + 1; j < model.positions.size(); ++j) {
        max_lag = std::max(max_lag, model.positions[i].distance_to(model.positions[j]));
      }
    }
    if (max_lag <= 0.0) continue;  // all samples co-located: fallback
    const double bin_width = max_lag / static_cast<double>(config_.variogram_bins);
    std::vector<double> bin_sum(config_.variogram_bins, 0.0);
    std::vector<std::size_t> bin_count(config_.variogram_bins, 0);
    for (std::size_t i = 0; i < model.positions.size(); ++i) {
      for (std::size_t j = i + 1; j < model.positions.size(); ++j) {
        const double h = model.positions[i].distance_to(model.positions[j]);
        auto bin = static_cast<std::size_t>(h / bin_width);
        if (bin >= config_.variogram_bins) bin = config_.variogram_bins - 1;
        const double dv = model.values[i] - model.values[j];
        bin_sum[bin] += 0.5 * dv * dv;
        ++bin_count[bin];
      }
    }
    std::vector<double> lags;
    std::vector<double> gammas;
    for (std::size_t b = 0; b < config_.variogram_bins; ++b) {
      if (bin_count[b] == 0) continue;
      lags.push_back((static_cast<double>(b) + 0.5) * bin_width);
      gammas.push_back(bin_sum[b] / static_cast<double>(bin_count[b]));
    }
    if (lags.empty()) continue;
    model.variogram = fit_variogram(lags, gammas, variance);
    model.tree = std::make_unique<KdTree>(model.positions);
    models_[mac] = std::move(model);
  }
}

KrigingRegressor::Prediction KrigingRegressor::krige(const MacModel& model,
                                                     const geom::Vec3& at,
                                                     KdQueryScratch& scratch) const {
  const std::size_t n = model.tree->nearest(at, config_.max_neighbors, scratch);
  const std::vector<KdHit>& hits = scratch.heap;
  REMGEN_EXPECTS(n >= 1);
  if (n == 1) return {model.values[hits[0].index], std::sqrt(model.variogram.nugget)};

  // Ordinary kriging system with a Lagrange multiplier:
  //   [C  1] [w]   [c0]
  //   [1' 0] [mu] = [1 ]
  math::Matrix a(n + 1, n + 1);
  math::Matrix b(n + 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double h = model.positions[hits[i].index].distance_to(model.positions[hits[j].index]);
      a(i, j) = model.variogram.covariance(h);
    }
    // A small diagonal jitter keeps the system solvable with duplicate points.
    a(i, i) += 1e-9;
    a(i, n) = 1.0;
    a(n, i) = 1.0;
    b(i, 0) = model.variogram.covariance(hits[i].distance);
  }
  a(n, n) = 0.0;
  b(n, 0) = 1.0;

  math::Matrix w(n + 1, 1);
  try {
    w = math::lu_solve(std::move(a), std::move(b));
  } catch (const std::exception&) {
    return {model.mean, std::sqrt(model.variogram.nugget + model.variogram.partial_sill)};
  }

  double value = 0.0;
  for (std::size_t i = 0; i < n; ++i) value += w(i, 0) * model.values[hits[i].index];

  // Kriging variance: sigma^2 = C(0) - sum w_i c0_i - mu.
  const double c00 = model.variogram.covariance(0.0);
  double var = c00 - w(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    var -= w(i, 0) * model.variogram.covariance(hits[i].distance);
  }
  return {value, std::sqrt(std::max(var, 0.0))};
}

void KrigingRegressor::predict_with_sigma_batch(std::span<const data::Sample> queries,
                                                std::span<Prediction> out) const {
  REMGEN_EXPECTS(queries.size() == out.size());
  if (queries.empty()) return;
  REMGEN_SCOPE("ml.kriging.predict");
  REMGEN_COUNTER_ADD("ml.kriging.predicts", queries.size());
  // Per-thread scratch keeps the dense-REM prediction loop allocation-free
  // and safe for concurrent callers; runs of equal-MAC queries (the sweep's
  // access pattern) reuse one model lookup.
  thread_local KdQueryScratch scratch;
  const MacModel* model = nullptr;
  const radio::MacAddress* run_mac = nullptr;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const data::Sample& query = queries[qi];
    if (run_mac == nullptr || !(query.mac == *run_mac)) {
      const auto it = models_.find(query.mac);
      model = it == models_.end() ? nullptr : &it->second;
      run_mac = &query.mac;
    }
    out[qi] = model == nullptr ? Prediction{fallback_.predict(query), 0.0}
                               : krige(*model, query.position, scratch);
  }
}

KrigingRegressor::Prediction KrigingRegressor::predict_with_sigma(
    const data::Sample& query) const {
  Prediction out{0.0, 0.0};
  predict_with_sigma_batch({&query, 1}, {&out, 1});
  return out;
}

double KrigingRegressor::predict(const data::Sample& query) const {
  return predict_with_sigma(query).value;
}

void KrigingRegressor::predict_batch(std::span<const data::Sample> queries,
                                     std::span<double> out) const {
  REMGEN_EXPECTS(queries.size() == out.size());
  thread_local std::vector<Prediction> predictions;
  predictions.resize(queries.size());
  predict_with_sigma_batch(queries, predictions);
  for (std::size_t i = 0; i < queries.size(); ++i) out[i] = predictions[i].value;
}

std::optional<Variogram> KrigingRegressor::variogram_for(const radio::MacAddress& mac) const {
  const auto it = models_.find(mac);
  if (it == models_.end()) return std::nullopt;
  return it->second.variogram;
}

std::string KrigingRegressor::name() const {
  return util::format("kriging(neighbors={},bins={})", config_.max_neighbors,
                      config_.variogram_bins);
}

}  // namespace remgen::ml
