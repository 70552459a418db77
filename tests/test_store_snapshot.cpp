#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <vector>

#include "core/rem_builder.hpp"
#include "ml/model_zoo.hpp"
#include "ml/serialize.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace remgen::store {
namespace {

constexpr const char* kMacA = "02:00:00:00:00:0a";
constexpr const char* kMacB = "02:00:00:00:00:0b";

data::Sample make_sample(double x, double y, double z, const char* mac, double rss,
                         int channel = 6) {
  data::Sample s;
  s.position = {x, y, z};
  s.mac = *radio::MacAddress::parse(mac);
  s.channel = channel;
  s.ssid = "net";
  s.rss_dbm = rss;
  return s;
}

data::Dataset synthetic_dataset(std::size_t per_mac = 40) {
  util::Rng rng(21);
  data::Dataset ds;
  for (std::size_t i = 0; i < per_mac; ++i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 3.0);
    const double z = rng.uniform(0.0, 2.0);
    ds.add(make_sample(x, y, z, kMacA, -55.0 - 4.0 * x + rng.gaussian(0, 1.0), 6));
    ds.add(make_sample(x, y, z, kMacB, -75.0 - 2.0 * y + rng.gaussian(0, 1.0), 11));
  }
  return ds;
}

std::vector<data::Sample> query_points() {
  util::Rng rng(77);
  std::vector<data::Sample> queries;
  for (int i = 0; i < 25; ++i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 3.0);
    const double z = rng.uniform(0.0, 2.0);
    queries.push_back(make_sample(x, y, z, i % 2 == 0 ? kMacA : kMacB, 0.0, i % 2 == 0 ? 6 : 11));
  }
  return queries;
}

/// Bit pattern of a double: exact equality including signed zero.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- Model round-trips: every zoo estimator must predict bit-identically
// --- after save -> load into a fresh instance.

class StoreModelRoundTrip : public ::testing::TestWithParam<ml::ModelKind> {};

TEST_P(StoreModelRoundTrip, PredictionsBitIdenticalAfterReload) {
  const data::Dataset ds = synthetic_dataset();
  const auto model = ml::make_model(GetParam());
  model->fit(ds.samples());

  util::BinaryWriter w;
  ml::save_model(w, *model);
  util::BinaryReader r(w.buffer());
  const auto loaded = ml::load_model(r);
  EXPECT_EQ(r.remaining(), 0u) << "loader must consume the exact payload";

  for (const data::Sample& q : query_points()) {
    EXPECT_EQ(bits(model->predict(q)), bits(loaded->predict(q)))
        << ml::model_kind_name(GetParam()) << " diverged at (" << q.position.x << ", "
        << q.position.y << ", " << q.position.z << ")";
  }
}

TEST_P(StoreModelRoundTrip, SaveIsDeterministic) {
  const data::Dataset ds = synthetic_dataset();
  const auto model = ml::make_model(GetParam());
  model->fit(ds.samples());
  util::BinaryWriter first;
  util::BinaryWriter second;
  ml::save_model(first, *model);
  ml::save_model(second, *model);
  EXPECT_EQ(first.buffer(), second.buffer());
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, StoreModelRoundTrip,
                         ::testing::ValuesIn(ml::all_model_kinds(true)),
                         [](const auto& info) {
                           std::string name = ml::model_kind_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Snapshot container ------------------------------------------------

Snapshot make_snapshot(ml::ModelKind kind = ml::ModelKind::PerMacKnn) {
  const data::Dataset ds = synthetic_dataset();
  Snapshot snapshot;
  snapshot.dataset = ds.filter_min_samples_per_mac(1);
  auto model = ml::make_model(kind);
  core::RemBuilderConfig config;
  config.voxel_m = 0.5;
  config.min_samples_per_mac = 1;
  snapshot.rem.emplace(
      core::build_rem(ds, *model, geom::Aabb({0, 0, 0}, {4.0, 3.0, 2.0}), config));
  snapshot.model = std::move(model);
  return snapshot;
}

std::string snapshot_bytes(const Snapshot& snapshot) {
  std::ostringstream out;
  save_snapshot(out, snapshot);
  return out.str();
}

Snapshot load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return load_snapshot(in);
}

TEST(StoreSnapshot, DatasetRoundTripsExactly) {
  const Snapshot original = make_snapshot();
  const Snapshot loaded = load_bytes(snapshot_bytes(original));
  ASSERT_EQ(loaded.dataset.size(), original.dataset.size());
  for (std::size_t i = 0; i < original.dataset.size(); ++i) {
    const data::Sample& a = original.dataset.samples()[i];
    const data::Sample& b = loaded.dataset.samples()[i];
    EXPECT_EQ(bits(a.position.x), bits(b.position.x));
    EXPECT_EQ(bits(a.position.y), bits(b.position.y));
    EXPECT_EQ(bits(a.position.z), bits(b.position.z));
    EXPECT_EQ(a.ssid, b.ssid);
    EXPECT_EQ(bits(a.rss_dbm), bits(b.rss_dbm));
    EXPECT_EQ(a.mac, b.mac);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(bits(a.timestamp_s), bits(b.timestamp_s));
    EXPECT_EQ(a.uav_id, b.uav_id);
    EXPECT_EQ(a.waypoint_index, b.waypoint_index);
  }
}

TEST(StoreSnapshot, RemRoundTripsExactly) {
  const Snapshot original = make_snapshot();
  const Snapshot loaded = load_bytes(snapshot_bytes(original));
  ASSERT_TRUE(loaded.rem.has_value());
  const core::RadioEnvironmentMap& a = *original.rem;
  const core::RadioEnvironmentMap& b = *loaded.rem;
  ASSERT_EQ(a.macs(), b.macs());
  ASSERT_EQ(a.geometry().nx(), b.geometry().nx());
  ASSERT_EQ(a.geometry().ny(), b.geometry().ny());
  ASSERT_EQ(a.geometry().nz(), b.geometry().nz());
  EXPECT_EQ(bits(a.geometry().bounds().min.x), bits(b.geometry().bounds().min.x));
  EXPECT_EQ(bits(a.geometry().bounds().max.z), bits(b.geometry().bounds().max.z));
  for (const radio::MacAddress& mac : a.macs()) {
    for (std::size_t iz = 0; iz < a.geometry().nz(); ++iz) {
      for (std::size_t iy = 0; iy < a.geometry().ny(); ++iy) {
        for (std::size_t ix = 0; ix < a.geometry().nx(); ++ix) {
          const core::RemCell ca = a.cell(mac, {ix, iy, iz});
          const core::RemCell cb = b.cell(mac, {ix, iy, iz});
          ASSERT_EQ(bits(ca.rss_dbm), bits(cb.rss_dbm));
          ASSERT_EQ(bits(ca.sigma_db), bits(cb.sigma_db));
        }
      }
    }
  }
}

TEST(StoreSnapshot, ModelInSnapshotPredictsBitIdentically) {
  const Snapshot original = make_snapshot();
  const Snapshot loaded = load_bytes(snapshot_bytes(original));
  ASSERT_NE(loaded.model, nullptr);
  for (const data::Sample& q : query_points()) {
    EXPECT_EQ(bits(original.model->predict(q)), bits(loaded.model->predict(q)));
  }
}

TEST(StoreSnapshot, SerialisationIsDeterministic) {
  const Snapshot snapshot = make_snapshot();
  EXPECT_EQ(snapshot_bytes(snapshot), snapshot_bytes(snapshot));
}

TEST(StoreSnapshot, RemAndModelAreOptional) {
  Snapshot sparse;
  sparse.dataset = synthetic_dataset();
  const Snapshot loaded = load_bytes(snapshot_bytes(sparse));
  EXPECT_EQ(loaded.dataset.size(), sparse.dataset.size());
  EXPECT_FALSE(loaded.rem.has_value());
  EXPECT_EQ(loaded.model, nullptr);
}

TEST(StoreSnapshot, FileRoundTrip) {
  const Snapshot snapshot = make_snapshot();
  const std::string path =
      (std::filesystem::temp_directory_path() / "remgen_test_snapshot.snap").string();
  save_snapshot_file(path, snapshot);
  const Snapshot loaded = load_snapshot_file(path);
  EXPECT_EQ(loaded.dataset.size(), snapshot.dataset.size());
  ASSERT_NE(loaded.model, nullptr);
  std::filesystem::remove(path);
}

TEST(StoreSnapshot, MissingFileThrows) {
  EXPECT_THROW((void)load_snapshot_file("/nonexistent/remgen.snap"), std::runtime_error);
}

// --- Corruption must fail loudly ---------------------------------------

TEST(StoreSnapshot, TruncatedFileThrows) {
  const std::string bytes = snapshot_bytes(make_snapshot());
  // Every strict prefix is invalid: spot-check several cut points including
  // mid-header, mid-section-header, and mid-payload.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{9},
                                std::size_t{15}, std::size_t{40}, bytes.size() - 1}) {
    EXPECT_THROW((void)load_bytes(bytes.substr(0, cut)), std::runtime_error)
        << "prefix of " << cut << " bytes must not load";
  }
}

TEST(StoreSnapshot, FlippedPayloadByteFailsCrc) {
  std::string bytes = snapshot_bytes(make_snapshot());
  // Flip one byte inside the first section's payload (header is
  // 8 magic + 4 version + 4 count + 4 id + 8 size + 4 crc = 32 bytes).
  bytes[40] = static_cast<char>(bytes[40] ^ 0x01);
  EXPECT_THROW(
      {
        try {
          (void)load_bytes(bytes);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(StoreSnapshot, WrongVersionThrows) {
  std::string bytes = snapshot_bytes(make_snapshot());
  bytes[8] = 99;  // Version field follows the 8-byte magic (little-endian).
  EXPECT_THROW(
      {
        try {
          (void)load_bytes(bytes);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(StoreSnapshot, BadMagicThrows) {
  std::string bytes = snapshot_bytes(make_snapshot());
  bytes[0] = 'X';
  EXPECT_THROW((void)load_bytes(bytes), std::runtime_error);
}

TEST(StoreSnapshot, UnknownSectionIsSkipped) {
  std::string bytes = snapshot_bytes(make_snapshot());
  // Append a CRC-valid section with an unknown id and bump the count: a
  // newer writer's extra section must not break this reader.
  util::BinaryWriter extra;
  extra.u32(999);
  extra.u64(2);
  extra.u32(util::crc32("zz"));
  extra.bytes("zz", 2);
  bytes += extra.buffer();
  bytes[12] = static_cast<char>(bytes[12] + 1);  // Section count (LE u32 at 12).
  const Snapshot loaded = load_bytes(bytes);
  EXPECT_NE(loaded.model, nullptr);
  EXPECT_TRUE(loaded.rem.has_value());
}

TEST(StoreSnapshot, UnknownSectionWithBadCrcStillThrows) {
  std::string bytes = snapshot_bytes(make_snapshot());
  util::BinaryWriter extra;
  extra.u32(999);
  extra.u64(2);
  extra.u32(0xdeadbeef);  // Wrong CRC on purpose.
  extra.bytes("zz", 2);
  bytes += extra.buffer();
  bytes[12] = static_cast<char>(bytes[12] + 1);
  EXPECT_THROW((void)load_bytes(bytes), std::runtime_error);
}

// --- Bounded decoders: a CRC-valid file whose length field claims more
// --- elements than its bytes can hold is rejected before any allocation.

constexpr std::uint64_t kInflatedCount = std::uint64_t{1} << 40;

/// One CRC-valid section around `payload`, in a snapshot or delta container.
std::string one_section_file(std::string_view magic, std::uint32_t id,
                             const util::BinaryWriter& payload) {
  util::BinaryWriter w;
  w.bytes(magic.data(), magic.size());
  w.u32(1);  // version
  w.u32(1);  // section count
  w.u32(id);
  w.u64(payload.size());
  w.u32(util::crc32(payload.buffer()));
  w.bytes(payload.buffer().data(), payload.size());
  return w.buffer();
}

void expect_count_rejected(const std::function<void()>& load) {
  try {
    load();
    ADD_FAILURE() << "the inflated count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos) << e.what();
  }
}

TEST(StoreSnapshot, InflatedSampleCountIsRejected) {
  util::BinaryWriter payload;
  payload.u64(kInflatedCount);
  const std::string bytes =
      one_section_file(kSnapshotMagic, static_cast<std::uint32_t>(SectionId::Dataset), payload);
  expect_count_rejected([&] { (void)load_bytes(bytes); });
}

TEST(StoreSnapshot, InflatedRemGridIsRejected) {
  // 2^20 x 2^20 x 2^10 cells per MAC: the product is checked axis by axis.
  util::BinaryWriter payload;
  for (int i = 0; i < 6; ++i) payload.f64(1.0);
  payload.u64(std::uint64_t{1} << 20);
  payload.u64(std::uint64_t{1} << 20);
  payload.u64(std::uint64_t{1} << 10);
  payload.u64(1);
  ml::save_mac(payload, *radio::MacAddress::parse(kMacA));
  const std::string bytes =
      one_section_file(kSnapshotMagic, static_cast<std::uint32_t>(SectionId::Rem), payload);
  expect_count_rejected([&] { (void)load_bytes(bytes); });
}

TEST(StoreSnapshot, InflatedNeuralNetLayerCountIsRejected) {
  util::BinaryWriter payload;
  payload.str("neural-net");
  payload.u64(kInflatedCount);  // hidden layer sizes
  const std::string bytes =
      one_section_file(kSnapshotMagic, static_cast<std::uint32_t>(SectionId::Model), payload);
  expect_count_rejected([&] { (void)load_bytes(bytes); });
}

TEST(StoreDelta, InflatedRowCountIsRejected) {
  util::BinaryWriter payload;
  payload.u64(kInflatedCount);
  const std::string bytes = one_section_file(
      kDeltaMagic, static_cast<std::uint32_t>(DeltaSectionId::DatasetRows), payload);
  expect_count_rejected([&] {
    std::istringstream in(bytes);
    (void)load_delta(in);
  });
}

}  // namespace
}  // namespace remgen::store
