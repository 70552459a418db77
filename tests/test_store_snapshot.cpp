#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <utility>
#include <vector>

#include "core/rem_builder.hpp"
#include "ml/knn.hpp"
#include "ml/model_zoo.hpp"
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

// --- Snapshot container ------------------------------------------------

/// synthetic_dataset(per_mac) is a prefix of every longer one, so snapshots
/// of the same kind from fewer and more rows form a delta-able epoch pair.
Snapshot make_snapshot(ml::ModelKind kind = ml::ModelKind::PerMacKnn, std::size_t per_mac = 40,
                       double voxel_m = 0.5) {
  const data::Dataset ds = synthetic_dataset(per_mac);
  Snapshot snapshot;
  snapshot.dataset = ds.filter_min_samples_per_mac(1);
  auto model = ml::make_model(kind);
  core::RemBuilderConfig config;
  config.voxel_m = voxel_m;
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

// --- Model round-trips: a snapshot names its model's zoo kind and the load
// --- refits it on the Dataset rows. Every zoo estimator must predict
// --- bit-identically after save -> load, and re-save to the same bytes.

class StoreModelRoundTrip : public ::testing::TestWithParam<ml::ModelKind> {};

/// The dataset and a model of the parameter's kind fitted on its rows.
Snapshot model_snapshot(ml::ModelKind kind) {
  Snapshot snapshot;
  snapshot.dataset = synthetic_dataset();
  snapshot.model = ml::make_model(kind);
  snapshot.model->fit(snapshot.dataset.samples());
  return snapshot;
}

TEST_P(StoreModelRoundTrip, PredictionsBitIdenticalAfterReload) {
  const Snapshot original = model_snapshot(GetParam());
  const Snapshot loaded = load_bytes(snapshot_bytes(original));
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(loaded.model->kind(), GetParam());
  for (const data::Sample& q : query_points()) {
    EXPECT_EQ(bits(original.model->predict(q)), bits(loaded.model->predict(q)))
        << ml::model_kind_name(GetParam()) << " diverged at (" << q.position.x << ", "
        << q.position.y << ", " << q.position.z << ")";
  }
}

TEST_P(StoreModelRoundTrip, SaveIsDeterministic) {
  const std::string bytes = snapshot_bytes(model_snapshot(GetParam()));
  EXPECT_EQ(snapshot_bytes(model_snapshot(GetParam())), bytes);
  EXPECT_EQ(snapshot_bytes(load_bytes(bytes)), bytes) << "re-saving the loaded snapshot";
  // The Model section is the kind's name and nothing else.
  EXPECT_NE(bytes.find(ml::model_kind_name(GetParam())), std::string::npos);
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

TEST(StoreSnapshot, ModelWithoutAZooKindIsNotSaved) {
  Snapshot snapshot;
  snapshot.dataset = synthetic_dataset();
  snapshot.model = std::make_unique<ml::KnnRegressor>();
  snapshot.model->fit(snapshot.dataset.samples());
  EXPECT_FALSE(snapshot.model->kind().has_value());
  EXPECT_THROW((void)snapshot_bytes(snapshot), std::runtime_error);
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

// --- The one batch recipe ----------------------------------------------

core::RemBuilderConfig gate_config(std::size_t min_samples) {
  core::RemBuilderConfig config;
  config.voxel_m = 0.5;
  config.min_samples_per_mac = min_samples;
  return config;
}

const geom::Aabb kVolume({0, 0, 0}, {4.0, 3.0, 2.0});

TEST(StoreBuildSnapshot, NulloptWhenNoMacReachesTheGate) {
  const data::Dataset raw = synthetic_dataset(10);  // 10 samples per MAC.
  EXPECT_FALSE(
      build_snapshot(raw, ml::ModelKind::PerMacKnn, kVolume, gate_config(11)).has_value());
  EXPECT_FALSE(build_snapshot(data::Dataset{}, ml::ModelKind::PerMacKnn, kVolume,
                              gate_config(1))
                   .has_value());
  EXPECT_TRUE(
      build_snapshot(raw, ml::ModelKind::PerMacKnn, kVolume, gate_config(10)).has_value());
}

TEST(StoreBuildSnapshot, MatchesHandBuiltBatchReferenceWithAMacBelowTheGate) {
  // A and B have 40 samples each; C's 5 stay below the 16-sample gate.
  data::Dataset raw = synthetic_dataset();
  util::Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    raw.add(make_sample(rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0),
                        "02:00:00:00:00:0c", -65.0, 1));
  }
  const core::RemBuilderConfig config = gate_config(16);
  for (const ml::ModelKind kind :
       {ml::ModelKind::KnnScaled16, ml::ModelKind::PerMacKnn, ml::ModelKind::Kriging}) {
    Snapshot reference;
    reference.dataset = raw.filter_min_samples_per_mac(config.min_samples_per_mac);
    auto model = ml::make_model(kind);
    reference.rem.emplace(core::build_rem(raw, *model, kVolume, config));
    reference.model = std::move(model);

    const std::optional<Snapshot> built = build_snapshot(raw, kind, kVolume, config);
    ASSERT_TRUE(built.has_value());
    EXPECT_EQ(built->dataset.size(), raw.size() - 5);
    EXPECT_EQ(built->rem->macs().size(), 2u);
    EXPECT_EQ(snapshot_bytes(*built), snapshot_bytes(reference)) << ml::model_kind_name(kind);
  }
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
std::string one_section_file(std::string_view magic, std::uint32_t version, std::uint32_t id,
                             const util::BinaryWriter& payload) {
  util::BinaryWriter w;
  w.bytes(magic.data(), magic.size());
  w.u32(version);
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
      one_section_file(kSnapshotMagic, kSnapshotVersion, static_cast<std::uint32_t>(SectionId::Dataset), payload);
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
  save_mac(payload, *radio::MacAddress::parse(kMacA));
  const std::string bytes =
      one_section_file(kSnapshotMagic, kSnapshotVersion, static_cast<std::uint32_t>(SectionId::Rem), payload);
  expect_count_rejected([&] { (void)load_bytes(bytes); });
}

TEST(StoreDelta, InflatedRowCountIsRejected) {
  util::BinaryWriter payload;
  payload.u64(kInflatedCount);
  const std::string bytes = one_section_file(
      kDeltaMagic, kDeltaVersion, static_cast<std::uint32_t>(DeltaSectionId::DatasetRows),
      payload);
  expect_count_rejected([&] {
    std::istringstream in(bytes);
    (void)load_delta(in);
  });
}

// --- Load-or-reject: a CRC-valid file the loader cannot turn into a zoo
// --- model fitted on rows throws std::runtime_error, never aborts.

void expect_rejected(const std::string& bytes, const std::string& reason) {
  try {
    (void)load_bytes(bytes);
    ADD_FAILURE() << "accepted a snapshot with " << reason;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
  }
}

/// A Model section naming `name`.
util::BinaryWriter model_payload(std::string_view name) {
  util::BinaryWriter payload;
  payload.str(name);
  return payload;
}

TEST(StoreSnapshot, UnknownModelKindIsRejected) {
  expect_rejected(one_section_file(kSnapshotMagic, kSnapshotVersion,
                                   static_cast<std::uint32_t>(SectionId::Model),
                                   model_payload("knn-onehot-x4-k99")),
                  "unknown model");
  // Version 1's kNN state with n_neighbors = 0: the tag is no zoo kind, so
  // no hyperparameter in the file reaches a model.
  util::BinaryWriter v1_knn = model_payload("knn");
  v1_knn.u64(0);
  expect_rejected(one_section_file(kSnapshotMagic, kSnapshotVersion,
                                   static_cast<std::uint32_t>(SectionId::Model), v1_knn),
                  "unknown model");
}

TEST(StoreSnapshot, ModelWithoutDatasetRowsIsRejected) {
  // No Dataset section at all, then an empty one ahead of the Model section.
  const util::BinaryWriter model = model_payload("knn-onehot-x3-k16");
  expect_rejected(one_section_file(kSnapshotMagic, kSnapshotVersion,
                                   static_cast<std::uint32_t>(SectionId::Model), model),
                  "without dataset rows");
  Snapshot empty;
  empty.model = ml::make_model(ml::ModelKind::KnnScaled16);
  expect_rejected(snapshot_bytes(empty), "without dataset rows");
}

TEST(StoreSnapshot, VersionOneIsRejected) {
  std::string bytes = snapshot_bytes(model_snapshot(ml::ModelKind::KnnScaled16));
  bytes[8] = 1;  // Version field follows the 8-byte magic (little-endian).
  expect_rejected(bytes, "unsupported version 1");
}

// --- Decoded rows obey the CSV row rule: a CRC-valid file carrying a
// --- non-finite double or an integer field beyond int is rejected.

void expect_row_rejected(const std::function<void()>& load, const std::string& field) {
  try {
    load();
    ADD_FAILURE() << "a bad " << field << " row was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

/// The bad rows, each with the field it breaks.
std::vector<std::pair<data::Sample, std::string>> bad_rows() {
  std::vector<std::pair<data::Sample, std::string>> rows;
  rows.emplace_back(make_sample(1.0, 1.0, 1.0, kMacA, std::nan("")), "rss_dbm");
  rows.emplace_back(make_sample(HUGE_VAL, 1.0, 1.0, kMacA, -60.0), "x");
  rows.emplace_back(make_sample(1.0, 1.0, -HUGE_VAL, kMacA, -60.0), "z");
  data::Sample late = make_sample(1.0, 1.0, 1.0, kMacA, -60.0);
  late.timestamp_s = std::nan("");
  rows.emplace_back(late, "timestamp_s");
  return rows;
}

TEST(StoreSnapshot, NonFiniteRowIsRejected) {
  for (const auto& [row, field] : bad_rows()) {
    data::Dataset ds = synthetic_dataset(5);
    ds.add(row);
    Snapshot snapshot;
    snapshot.dataset = std::move(ds);
    const std::string bytes = snapshot_bytes(snapshot);
    expect_row_rejected([&] { (void)load_bytes(bytes); }, field);
  }
}

TEST(StoreDelta, NonFiniteRowIsRejected) {
  for (const auto& [row, field] : bad_rows()) {
    SnapshotDelta delta;
    delta.final_rows = 1;
    delta.added_rows.push_back(DeltaRow{0, row});
    std::ostringstream out;
    save_delta(out, delta);
    const std::string bytes = out.str();
    expect_row_rejected(
        [&] {
          std::istringstream in(bytes);
          (void)load_delta(in);
        },
        field);
  }
}

TEST(StoreSnapshot, IntegerFieldBeyondIntIsRejected) {
  // write_sample_row stores the int fields as i64; a hand-written row can
  // carry a value that would silently truncate.
  for (const std::string field : {"channel", "uav_id", "waypoint_index"}) {
    util::BinaryWriter payload;
    payload.u64(1);  // rows
    for (int i = 0; i < 3; ++i) payload.f64(1.0);
    payload.str("net");
    payload.f64(-60.0);
    save_mac(payload, *radio::MacAddress::parse(kMacA));
    const std::int64_t big = std::int64_t{1} << 40;
    payload.i64(field == "channel" ? big : 6);
    payload.f64(0.0);
    payload.i64(field == "uav_id" ? big : 0);
    payload.i64(field == "waypoint_index" ? -big : 0);
    const std::string bytes = one_section_file(
        kSnapshotMagic, kSnapshotVersion, static_cast<std::uint32_t>(SectionId::Dataset), payload);
    expect_row_rejected([&] { (void)load_bytes(bytes); }, field);
  }
}

// --- Rows-only deltas: the consumer rebuilds with the base's recipe -----

/// `delta` through the wire format (CRC-valid bytes), then applied to `base`.
Snapshot apply_via_bytes(const Snapshot& base, const SnapshotDelta& delta) {
  std::ostringstream out;
  save_delta(out, delta);
  std::istringstream in(out.str());
  return apply_delta(base, load_delta(in));
}

TEST(StoreDelta, UntamperedPatchReplaysOntoEitherBase) {
  // The same delta replays onto the in-memory base and onto that base
  // reloaded from its REMSNAP1 bytes.
  const Snapshot base = make_snapshot(ml::ModelKind::PerMacKnn, 20);
  const Snapshot next = make_snapshot(ml::ModelKind::PerMacKnn);
  const SnapshotDelta delta = make_delta(base, next, 1, 2);
  EXPECT_EQ(delta.added_rows.size(), next.dataset.size() - base.dataset.size());
  EXPECT_EQ(snapshot_bytes(apply_via_bytes(base, delta)), snapshot_bytes(next));
  EXPECT_EQ(snapshot_bytes(apply_via_bytes(load_bytes(snapshot_bytes(base)), delta)),
            snapshot_bytes(next));
}

TEST(StoreDelta, MakeDeltaThrowsWhenTheRecipeChanges) {
  const Snapshot base = make_snapshot(ml::ModelKind::PerMacKnn, 20);
  // Another model family: the consumer would refit the wrong estimator.
  EXPECT_THROW((void)make_delta(base, make_snapshot(ml::ModelKind::KnnScaled16), 1, 2),
               std::runtime_error);
  // Another grid: the consumer would sweep the wrong voxels.
  EXPECT_THROW(
      (void)make_delta(base, make_snapshot(ml::ModelKind::PerMacKnn, 40, 0.25), 1, 2),
      std::runtime_error);
  // Nothing to rebuild from.
  Snapshot no_rem = make_snapshot(ml::ModelKind::PerMacKnn, 20);
  no_rem.rem.reset();
  EXPECT_THROW((void)make_delta(no_rem, make_snapshot(), 1, 2), std::runtime_error);
}

TEST(StoreDelta, ApplyDeltaThrowsOnABaseItCannotRebuildFrom) {
  const Snapshot next = make_snapshot();
  const SnapshotDelta delta = make_delta(make_snapshot(ml::ModelKind::PerMacKnn, 20), next, 1, 2);

  Snapshot no_model = make_snapshot(ml::ModelKind::PerMacKnn, 20);
  no_model.model.reset();
  EXPECT_THROW((void)apply_via_bytes(no_model, delta), std::runtime_error);

  Snapshot no_rem = make_snapshot(ml::ModelKind::PerMacKnn, 20);
  no_rem.rem.reset();
  EXPECT_THROW((void)apply_via_bytes(no_rem, delta), std::runtime_error);

  // Same rows (so the dataset CRC matches), another model family.
  Snapshot other_model = make_snapshot(ml::ModelKind::PerMacKnn, 20);
  other_model.model = ml::make_model(ml::ModelKind::KnnScaled16);
  EXPECT_THROW((void)apply_via_bytes(other_model, delta), std::runtime_error);
}

TEST(StoreDelta, VersionOneIsRejected) {
  const SnapshotDelta delta =
      make_delta(make_snapshot(ml::ModelKind::PerMacKnn, 20), make_snapshot(), 1, 2);
  std::ostringstream out;
  save_delta(out, delta);
  std::string bytes = out.str();
  bytes[8] = 1;  // Version field follows the 8-byte magic (little-endian).
  std::istringstream in(bytes);
  try {
    (void)load_delta(in);
    ADD_FAILURE() << "a version 1 delta was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

// --- File writers report a full disk ------------------------------------

TEST(StoreFiles, SmallWritesToAFullDiskThrow) {
  // Both payloads fit the stream buffer, so the failure only shows at close.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  EXPECT_THROW(save_snapshot_file("/dev/full", Snapshot{}), std::runtime_error);
  SnapshotDelta delta;
  delta.final_rows = 1;
  delta.added_rows.push_back(DeltaRow{0, make_sample(1.0, 1.0, 1.0, kMacA, -60.0)});
  EXPECT_THROW(save_delta_file("/dev/full", delta), std::runtime_error);
}

}  // namespace
}  // namespace remgen::store
