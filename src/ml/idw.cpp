#include "ml/idw.hpp"

#include <algorithm>
#include <cmath>

#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"

namespace remgen::ml {

IdwRegressor::IdwRegressor(const IdwConfig& config) : config_(config) {
  REMGEN_EXPECTS(config.power > 0.0);
}

void IdwRegressor::fit(std::span<const data::Sample> train) {
  REMGEN_EXPECTS(!train.empty());
  fallback_.fit(train);
  per_mac_.clear();
  for (const data::Sample& s : train) {
    MacData& d = per_mac_[s.mac];
    d.positions.push_back(s.position);
    d.values.push_back(s.rss_dbm);
  }
  if (config_.max_neighbors > 0) {
    for (auto& [mac, d] : per_mac_) d.tree.emplace(d.positions);
  }
}

double IdwRegressor::predict(const data::Sample& query) const {
  double out = 0.0;
  predict_batch({&query, 1}, {&out, 1});
  return out;
}

void IdwRegressor::predict_batch(std::span<const data::Sample> queries,
                                 std::span<double> out) const {
  REMGEN_EXPECTS(queries.size() == out.size());
  if (queries.empty()) return;
  REMGEN_SCOPE("ml.idw.predict");
  constexpr double kExactEps = 1e-9;

  // Weight-exponent dispatch, classified once per batch. The common powers
  // skip std::pow entirely (pow(d, 2) and pow(d, 1) round to d*d and d for
  // finite d, so results are unchanged).
  enum class PowKind { Two, One, General };
  const double power = config_.power;
  const PowKind pk =
      power == 2.0 ? PowKind::Two : (power == 1.0 ? PowKind::One : PowKind::General);
  const auto weight_of = [pk, power](double dd) {
    switch (pk) {
      case PowKind::Two: return 1.0 / (dd * dd);
      case PowKind::One: return 1.0 / dd;
      case PowKind::General: return 1.0 / std::pow(dd, power);
    }
    return 1.0 / (dd * dd);
  };

  thread_local KdQueryScratch scratch;
  // Runs of equal-MAC queries (the REM sweep's access pattern) reuse one
  // per-MAC hash lookup.
  const MacData* d = nullptr;
  const radio::MacAddress* run_mac = nullptr;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const data::Sample& query = queries[qi];
    if (run_mac == nullptr || !(query.mac == *run_mac)) {
      const auto it = per_mac_.find(query.mac);
      d = it == per_mac_.end() ? nullptr : &it->second;
      run_mac = &query.mac;
    }
    if (d == nullptr) {
      out[qi] = fallback_.predict(query);
      continue;
    }

    if (d->tree.has_value()) {
      // Restricted to the nearest max_neighbors samples via the tree; the
      // scratch (heap + visit stack) is per-thread and batch-reused.
      const std::size_t n = d->tree->nearest(query.position, config_.max_neighbors, scratch);
      const std::vector<KdHit>& hits = scratch.heap;
      double weighted = 0.0;
      double weight_sum = 0.0;
      bool exact = false;
      for (std::size_t i = 0; i < n; ++i) {
        const double dd = hits[i].distance;
        if (dd < kExactEps) {
          out[qi] = d->values[hits[i].index];
          exact = true;
          break;
        }
        const double w = weight_of(dd);
        weighted += w * d->values[hits[i].index];
        weight_sum += w;
      }
      if (!exact) out[qi] = weighted / weight_sum;
      continue;
    }

    // All samples of the MAC contribute: a single allocation-free pass.
    double weighted = 0.0;
    double weight_sum = 0.0;
    bool exact = false;
    for (std::size_t i = 0; i < d->positions.size(); ++i) {
      const double dd = d->positions[i].distance_to(query.position);
      if (dd < kExactEps) {
        out[qi] = d->values[i];
        exact = true;
        break;
      }
      const double w = weight_of(dd);
      weighted += w * d->values[i];
      weight_sum += w;
    }
    if (!exact) out[qi] = weighted / weight_sum;
  }
}

std::string IdwRegressor::name() const {
  return util::format("idw(p={:.1f},max_n={})", config_.power, config_.max_neighbors);
}

}  // namespace remgen::ml
