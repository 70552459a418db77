#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ml/distance.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"

namespace remgen::ml {

double minkowski_distance(std::span<const double> a, std::span<const double> b, double p) {
  REMGEN_EXPECTS(a.size() == b.size());
  REMGEN_EXPECTS(p >= 1.0);
  // Classify p once and compute 1/p once — the general path previously
  // re-derived 1.0 / p (and re-branched on p) inside every call site loop.
  const MinkowskiKind kind = minkowski_kind(p);
  const double pre = minkowski_pre(a.data(), b.data(), a.size(), kind, p);
  return minkowski_finish(pre, kind, 1.0 / p);
}

KnnRegressor::KnnRegressor(const KnnConfig& config)
    : config_(config), encoder_() {
  REMGEN_EXPECTS(config.n_neighbors > 0);
}

void KnnRegressor::fit(std::span<const data::Sample> train) {
  REMGEN_EXPECTS(!train.empty());
  REMGEN_SCOPE("ml.knn.fit");
  REMGEN_COUNTER_ADD("ml.knn.fits", 1);
  const data::FeatureConfig& f = config_.features;
  encoder_ = data::FeatureEncoder::fit(train, f);
  const std::size_t pos_dims = f.include_position ? 3 : 0;
  positions_ = data::FeatureMatrix(train.size(), pos_dims);
  row_mac_.assign(train.size(), -1);
  std::vector<double> encoded(encoder_.dimension());
  for (std::size_t i = 0; i < train.size(); ++i) {
    encoder_.encode_into(train[i], encoded);
    std::copy_n(encoded.begin(), pos_dims, positions_.row(i).begin());
    if (f.include_mac_onehot) row_mac_[i] = encoder_.mac_index(train[i].mac);
  }
  targets_ = data::rss_targets(train);

  tree_.reset();
  if (f.include_position && !f.include_mac_onehot && !f.normalize_position &&
      config_.minkowski_p == 2.0) {
    // Unnormalized position-only encoding is the raw coordinates, and
    // minkowski p=2 is Vec3::distance_to — the tree query is exact.
    std::vector<geom::Vec3> positions;
    positions.reserve(train.size());
    for (const data::Sample& s : train) positions.push_back(s.position);
    tree_.emplace(positions);
  }
  fitted_ = true;
}

double KnnRegressor::predict(const data::Sample& query) const {
  double out = 0.0;
  predict_batch({&query, 1}, {&out, 1});
  return out;
}

void KnnRegressor::predict_batch(std::span<const data::Sample> queries,
                                 std::span<double> out) const {
  REMGEN_EXPECTS(fitted_);
  REMGEN_EXPECTS(queries.size() == out.size());
  if (queries.empty()) return;
  REMGEN_SCOPE("ml.knn.predict");
  REMGEN_COUNTER_ADD("ml.knn.predicts", queries.size());
  const std::size_t k = std::min(config_.n_neighbors, positions_.rows());
  // Distance weighting (scikit-learn semantics): an exact match dominates.
  constexpr double kExactEps = 1e-12;

  if (tree_.has_value()) {
    // One per-thread scratch (hit heap + visit stack) serves the whole batch:
    // predict_batch stays const and allocation-free under concurrent callers.
    thread_local KdQueryScratch scratch;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const std::size_t n = tree_->nearest(queries[qi].position, k, scratch);
      const std::vector<KdHit>& hits = scratch.heap;
      if (config_.weights == KnnWeights::Uniform) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc += targets_[hits[i].index];
        out[qi] = acc / static_cast<double>(n);
        continue;
      }
      double weighted = 0.0;
      double weight_sum = 0.0;
      bool exact = false;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = hits[i].distance;
        if (d < kExactEps) {
          out[qi] = targets_[hits[i].index];
          exact = true;
          break;
        }
        const double w = 1.0 / d;
        weighted += w * targets_[hits[i].index];
        weight_sum += w;
      }
      if (!exact) out[qi] = weighted / weight_sum;
    }
    return;
  }

  // Brute path. The whole Minkowski dispatch is hoisted out of the per-row
  // loop: p is classified once, 1/p computed once, and — because the MAC
  // one-hot block differs from a query's block in at most two positions —
  // each row's entire block collapses to one of three precomputed penalty
  // constants (match, mismatch, or query-MAC-unknown). The inner loop is
  // then a contiguous 3-element position scan plus an O(1) penalty add, selecting
  // neighbours on the pre-distance (monotone in the true distance) and
  // deferring sqrt/pow to the at-most-k selected rows.
  const double p = config_.minkowski_p;
  const MinkowskiKind kind = minkowski_kind(p);
  const double inv_p = 1.0 / p;
  const data::FeatureConfig& f = config_.features;
  const std::size_t pos_dims = f.include_position ? 3 : 0;
  const auto phi = [kind, p](double s) {
    switch (kind) {
      case MinkowskiKind::L2: return s * s;
      case MinkowskiKind::L1: return std::abs(s);
      case MinkowskiKind::General: return std::pow(std::abs(s), p);
    }
    return s * s;
  };
  // Mismatch: the row's hot element and the query's hot element each
  // contribute phi(scale). Unknown query key: only the row's element does.
  const double mac_mismatch = f.include_mac_onehot ? 2.0 * phi(f.mac_onehot_scale) : 0.0;
  const double mac_unknown = f.include_mac_onehot ? phi(f.mac_onehot_scale) : 0.0;

  thread_local std::vector<double> qrow;
  thread_local std::vector<std::pair<double, std::size_t>> pre;
  qrow.resize(encoder_.dimension());
  const std::size_t rows = positions_.rows();
  pre.resize(rows);

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const data::Sample& query = queries[qi];
    encoder_.encode_into(query, qrow);
    const int q_mac = f.include_mac_onehot ? encoder_.mac_index(query.mac) : -1;
    const double* qpos = qrow.data();
    for (std::size_t i = 0; i < rows; ++i) {
      double acc = minkowski_pre(qpos, positions_.row_ptr(i), pos_dims, kind, p);
      if (f.include_mac_onehot) {
        acc += q_mac < 0 ? mac_unknown : (row_mac_[i] == q_mac ? 0.0 : mac_mismatch);
      }
      pre[i] = {acc, i};
    }
    std::nth_element(pre.begin(), pre.begin() + static_cast<std::ptrdiff_t>(k - 1), pre.end());

    if (config_.weights == KnnWeights::Uniform) {
      double acc = 0.0;
      for (std::size_t i = 0; i < k; ++i) acc += targets_[pre[i].second];
      out[qi] = acc / static_cast<double>(k);
      continue;
    }

    double weighted = 0.0;
    double weight_sum = 0.0;
    bool exact = false;
    for (std::size_t i = 0; i < k; ++i) {
      const double d = minkowski_finish(pre[i].first, kind, inv_p);
      if (d < kExactEps) {
        out[qi] = targets_[pre[i].second];
        exact = true;
        break;
      }
      const double w = 1.0 / d;
      weighted += w * targets_[pre[i].second];
      weight_sum += w;
    }
    if (!exact) out[qi] = weighted / weight_sum;
  }
}

std::string KnnRegressor::name() const {
  return util::format("knn(k={},weights={},p={:.0f},mac_scale={:.1f})", config_.n_neighbors,
                      config_.weights == KnnWeights::Distance ? "distance" : "uniform",
                      config_.minkowski_p, config_.features.mac_onehot_scale);
}

}  // namespace remgen::ml
