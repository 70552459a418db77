#include <gtest/gtest.h>

#include <set>

#include "data/encoding.hpp"

namespace remgen::data {
namespace {

Sample make_sample(double x, double y, double z, const char* mac, int channel = 6,
                   double rss = -70.0) {
  Sample s;
  s.position = {x, y, z};
  s.mac = *radio::MacAddress::parse(mac);
  s.channel = channel;
  s.rss_dbm = rss;
  return s;
}

std::vector<Sample> three_macs() {
  return {make_sample(0, 0, 0, "02:00:00:00:00:01", 1, -60),
          make_sample(1, 2, 0.5, "02:00:00:00:00:02", 6, -70),
          make_sample(2, 1, 1.0, "02:00:00:00:00:03", 11, -80)};
}

TEST(FeatureEncoder, DimensionPositionPlusOneHot) {
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, FeatureConfig{});
  EXPECT_EQ(enc.dimension(), 3u + 3u);
  EXPECT_EQ(enc.mac_vocabulary_size(), 3u);
}

TEST(FeatureEncoder, PositionOnly) {
  FeatureConfig config;
  config.include_mac_onehot = false;
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, config);
  EXPECT_EQ(enc.dimension(), 3u);
  const auto f = enc.encode(samples[1]);
  EXPECT_EQ(f, (std::vector<double>{1.0, 2.0, 0.5}));
}

TEST(FeatureEncoder, OneHotIsExactlyOneHot) {
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, FeatureConfig{});
  for (const Sample& s : samples) {
    const auto f = enc.encode(s);
    int ones = 0;
    for (std::size_t i = 3; i < f.size(); ++i) {
      if (f[i] == 1.0) ++ones;
      else EXPECT_EQ(f[i], 0.0);
    }
    EXPECT_EQ(ones, 1);
  }
}

TEST(FeatureEncoder, DistinctMacsGetDistinctSlots) {
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, FeatureConfig{});
  std::set<std::vector<double>> onehots;
  for (const Sample& s : samples) {
    auto f = enc.encode(s);
    onehots.insert(std::vector<double>(f.begin() + 3, f.end()));
  }
  EXPECT_EQ(onehots.size(), 3u);
}

TEST(FeatureEncoder, ScaleMultipliesOneHotBlock) {
  FeatureConfig config;
  config.mac_onehot_scale = 3.0;
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, config);
  const auto f = enc.encode(samples[0]);
  double max_onehot = 0.0;
  for (std::size_t i = 3; i < f.size(); ++i) max_onehot = std::max(max_onehot, f[i]);
  EXPECT_DOUBLE_EQ(max_onehot, 3.0);
}

TEST(FeatureEncoder, UnknownMacEncodesAllZeros) {
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, FeatureConfig{});
  const Sample unknown = make_sample(0, 0, 0, "02:ff:ff:ff:ff:ff");
  EXPECT_EQ(enc.mac_index(unknown.mac), -1);
  const auto f = enc.encode(unknown);
  for (std::size_t i = 3; i < f.size(); ++i) EXPECT_EQ(f[i], 0.0);
}

TEST(FeatureEncoder, NormalizedPositionInUnitCube) {
  FeatureConfig config;
  config.normalize_position = true;
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, config);
  for (const Sample& s : samples) {
    const auto f = enc.encode(s);
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(f[d], 0.0);
      EXPECT_LE(f[d], 1.0);
    }
  }
  // Extremes map to 0 and 1.
  EXPECT_DOUBLE_EQ(enc.encode(samples[0])[0], 0.0);
  EXPECT_DOUBLE_EQ(enc.encode(samples[2])[0], 1.0);
}

TEST(FeatureEncoder, EncodingIndependentOfSampleOrder) {
  auto samples = three_macs();
  const FeatureEncoder enc1 = FeatureEncoder::fit(samples, FeatureConfig{});
  std::swap(samples[0], samples[2]);
  const FeatureEncoder enc2 = FeatureEncoder::fit(samples, FeatureConfig{});
  // The vocabulary is sorted, so the encodings agree.
  EXPECT_EQ(enc1.encode(samples[0]), enc2.encode(samples[0]));
}

TEST(FeatureEncoder, EncodeAllMatchesEncode) {
  const auto samples = three_macs();
  const FeatureEncoder enc = FeatureEncoder::fit(samples, FeatureConfig{});
  const auto all = enc.encode_all(samples);
  ASSERT_EQ(all.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(all[i], enc.encode(samples[i]));
  }
}

TEST(TargetScaler, StandardizesAndInverts) {
  const std::vector<double> values{-60.0, -70.0, -80.0};
  const TargetScaler scaler = TargetScaler::fit(values);
  EXPECT_DOUBLE_EQ(scaler.mean(), -70.0);
  EXPECT_NEAR(scaler.transform(-70.0), 0.0, 1e-12);
  for (const double v : values) {
    EXPECT_NEAR(scaler.inverse(scaler.transform(v)), v, 1e-12);
  }
}

TEST(TargetScaler, ConstantTargetsDoNotDivideByZero) {
  const std::vector<double> values{-70.0, -70.0, -70.0};
  const TargetScaler scaler = TargetScaler::fit(values);
  EXPECT_DOUBLE_EQ(scaler.transform(-70.0), 0.0);
  EXPECT_DOUBLE_EQ(scaler.inverse(0.0), -70.0);
}

TEST(RssTargets, ExtractsValues) {
  const auto samples = three_macs();
  const std::vector<double> targets = rss_targets(samples);
  EXPECT_EQ(targets, (std::vector<double>{-60.0, -70.0, -80.0}));
}

}  // namespace
}  // namespace remgen::data
