#include "obs/metrics.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace remgen::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  REMGEN_EXPECTS(!bounds_.empty());
  REMGEN_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>()).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>(std::move(upper_bounds)))
              .first->second;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, metric] : counters_) out.counters.emplace(name, metric->value());
  for (const auto& [name, metric] : gauges_) out.gauges.emplace(name, metric->value());
  for (const auto& [name, metric] : histograms_) {
    out.histograms.emplace(name, HistogramSnapshot{metric->upper_bounds(),
                                                   metric->bucket_counts(), metric->count(),
                                                   metric->sum()});
  }
  return out;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : counters_) entry.second->reset();
  for (const auto& entry : gauges_) entry.second->reset();
  for (const auto& entry : histograms_) entry.second->reset();
}

Registry& registry() {
  // Leaked: pool workers still starting up at process exit name themselves
  // and record here after static destructors have run.
  static Registry* instance = new Registry;
  return *instance;
}

}  // namespace remgen::obs
