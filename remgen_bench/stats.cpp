#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace remgen::bench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

Quantile at_rank(const std::vector<double>& sorted, std::size_t index) {
  Quantile q;
  q.count = sorted.size();
  q.value = sorted[index];
  q.beyond = sorted.size() - 1 - index;
  q.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(sorted.size());
  return q;
}

}  // namespace

Quantile percentile(std::vector<double> values, double p) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return at_rank(values, index);
}

Quantile tail(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return at_rank(values, n > 10 ? n - 11 : n - 1);
}

}  // namespace remgen::bench
