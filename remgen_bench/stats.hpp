// Order statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <vector>

namespace remgen::bench {

/// A percentile of a sample set, with how many samples lie beyond it.
struct Quantile {
  double value = 0.0;
  double percentile = 0.0;  ///< In [0, 100].
  std::size_t count = 0;    ///< Samples in the set.
  std::size_t beyond = 0;   ///< Samples strictly after it in sorted order.
};

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `p` in [0, 100]; zero-valued when empty.
[[nodiscard]] Quantile percentile(std::vector<double> values, double p);

/// The highest percentile that still has at least ten samples beyond it:
/// the value eleventh from the top. With ten or fewer samples it is the
/// maximum, and `beyond` says so.
[[nodiscard]] Quantile tail(std::vector<double> values);

}  // namespace remgen::bench
