// Feature encoding for the ML stage.
//
// The features are the (x, y, z) coordinates plus the one-hot encoded MAC
// address, with a variant that multiplies the one-hot block by a scale
// factor so samples from different APs are pushed further apart in kNN
// feature space (scale 3 with k=16 was the paper's best configuration). The
// paper also one-hot encodes the channel; no reproduced model used that
// block, so a query is a MAC and a point.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "data/sample.hpp"
#include "radio/mac_address.hpp"

namespace remgen::data {

/// What goes into the feature vector.
struct FeatureConfig {
  bool include_position = true;
  bool include_mac_onehot = true;
  double mac_onehot_scale = 1.0;     ///< Multiplier on the one-hot block.
  bool normalize_position = false;   ///< Min-max scale coordinates to [0,1]
                                     ///< (used by the neural network).
};

/// Vocabulary-based encoder fitted on training data. An unknown MAC at
/// prediction time encodes as an all-zero one-hot block.
class FeatureEncoder {
 public:
  /// Learns the MAC vocabulary and position ranges from `samples`.
  [[nodiscard]] static FeatureEncoder fit(std::span<const Sample> samples,
                                          const FeatureConfig& config);

  /// Total feature dimension.
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  /// Number of MACs in the vocabulary.
  [[nodiscard]] std::size_t mac_vocabulary_size() const noexcept { return mac_index_.size(); }

  /// Index of a MAC in the vocabulary, or -1 if unseen during fit.
  [[nodiscard]] int mac_index(const radio::MacAddress& mac) const;

  /// Encodes one sample.
  [[nodiscard]] std::vector<double> encode(const Sample& sample) const;

  /// Encodes one sample into caller-provided storage (`out.size()` must be
  /// dimension()) — the allocation-free path hot prediction loops use with a
  /// per-thread scratch buffer.
  void encode_into(const Sample& sample, std::span<double> out) const;

  /// Encodes many samples (row per sample).
  [[nodiscard]] std::vector<std::vector<double>> encode_all(std::span<const Sample> samples) const;

  [[nodiscard]] const FeatureConfig& config() const noexcept { return config_; }

 private:
  FeatureConfig config_;
  std::unordered_map<radio::MacAddress, int> mac_index_;
  geom::Vec3 position_min_;
  geom::Vec3 position_range_;  ///< Componentwise max-min, floored at epsilon.
  std::size_t dimension_ = 0;
};

/// Standardises regression targets (zero mean, unit variance) — used by the
/// neural network; inverse-transformed at prediction time.
class TargetScaler {
 public:
  /// Learns mean/std from values (non-empty).
  [[nodiscard]] static TargetScaler fit(std::span<const double> values);

  [[nodiscard]] double transform(double value) const noexcept { return (value - mean_) / std_; }
  [[nodiscard]] double inverse(double scaled) const noexcept { return scaled * std_ + mean_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double stddev() const noexcept { return std_; }

 private:
  double mean_ = 0.0;
  double std_ = 1.0;
};

/// Extracts the RSS targets of a sample range.
[[nodiscard]] std::vector<double> rss_targets(std::span<const Sample> samples);

}  // namespace remgen::data
