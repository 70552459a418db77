// The three remgen-bench workloads: survey, query_mix and live.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace remgen::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< Length of the measured phase.
  bool trace = false;      ///< Traced run: per-layer metrics instead of gated ones.
  bool smoke = false;      ///< Tiny sizes; every check still runs.
  std::size_t nproc = 1;   ///< Thread budget of the whole process.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds `base` (the quantile's value) plus its percentile and sample
  /// count beside it.
  void add_quantile(const std::string& base, const Quantile& q, const std::string& unit);
  /// Counts one checked operation; a false `ok` counts it as failed.
  void check(bool ok, const std::string& what);
  /// Sets a gated end-to-end metric (name and unit fixed in BENCHMARK.json).
  void gate(const std::string& name, double value) { gated_[name] = value; }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::map<std::string, double>& gated() const { return gated_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, double> gated_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< First few failed checks, for the log.
};

/// Exec-pool width a workload runs at: `nproc` minus the threads it runs
/// beside the pool's own caller (server loop, client, sample pusher).
[[nodiscard]] std::size_t exec_width(const std::string& workload, std::size_t nproc);

[[nodiscard]] Result run_survey(const Options& options);
[[nodiscard]] Result run_query_mix(const Options& options);
[[nodiscard]] Result run_live(const Options& options);

}  // namespace remgen::bench
