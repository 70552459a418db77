// Streaming ingestion: the pipeline's epochs must be byte-identical to the
// one-shot batch build no matter how the stream was split or how many exec
// threads run, deltas must replay exactly, and tail sources must survive
// torn lines and bad rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/rem_builder.hpp"
#include "data/sink.hpp"
#include "exec/config.hpp"
#include "geom/aabb.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/source.hpp"
#include "ml/model_zoo.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace remgen::ingest {
namespace {

constexpr const char* kMacA = "02:00:00:00:00:0a";
constexpr const char* kMacB = "02:00:00:00:00:0b";
constexpr const char* kMacC = "02:00:00:00:00:0c";

/// `per_mac` samples for each of three MACs, interleaved in arrival order,
/// with timestamps advancing 0.25 s per sample.
std::vector<data::Sample> synthetic_stream(std::size_t per_mac, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<data::Sample> samples;
  double t = 0.0;
  for (std::size_t i = 0; i < per_mac; ++i) {
    for (const char* mac : {kMacA, kMacB, kMacC}) {
      data::Sample s;
      s.position = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)};
      s.ssid = "lab";
      s.mac = *radio::MacAddress::parse(mac);
      s.channel = 6;
      s.rss_dbm = -50.0 - 5.0 * s.position.x + rng.gaussian(0.0, 1.0);
      s.timestamp_s = t;
      t += 0.25;
      s.uav_id = 1;
      s.waypoint_index = static_cast<int>(i);
      samples.push_back(s);
    }
  }
  return samples;
}

IngestConfig test_config() {
  IngestConfig config;
  config.volume = geom::Aabb({0, 0, 0}, {4.0, 3.0, 2.0});
  config.rem.voxel_m = 0.5;
  config.rem.min_samples_per_mac = 1;
  config.cache_bytes = 1 << 20;
  return config;
}

/// The one-shot batch recipe (remgen campaign --snapshot-out): the reference
/// bytes every streamed epoch is held against.
std::string batch_bytes(const std::vector<data::Sample>& samples, const IngestConfig& config) {
  const data::Dataset raw{samples};
  store::Snapshot snapshot;
  snapshot.dataset = raw.filter_min_samples_per_mac(config.rem.min_samples_per_mac);
  auto model = ml::make_model(config.model);
  snapshot.rem.emplace(core::build_rem(raw, *model, config.volume, config.rem));
  snapshot.model = std::move(model);
  std::ostringstream out;
  store::save_snapshot(out, snapshot);
  return std::move(out).str();
}

void push_chunked(IngestPipeline& pipeline, const std::vector<data::Sample>& samples,
                  std::size_t chunk) {
  for (std::size_t off = 0; off < samples.size(); off += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - off);
    pipeline.push_batch(std::span<const data::Sample>(samples.data() + off, n));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

class IngestPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = exec::thread_count();
    exec::set_thread_count(2);
  }
  void TearDown() override { exec::set_thread_count(previous_threads_); }
  std::size_t previous_threads_ = 1;
};

TEST_F(IngestPipelineTest, StreamEqualsBatchAcrossSplitsAndThreadCounts) {
  const std::vector<data::Sample> samples = synthetic_stream(24, 7);
  const std::string expected = batch_bytes(samples, test_config());
  ASSERT_FALSE(expected.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exec::set_thread_count(threads);
    for (const std::size_t chunk : {samples.size(), std::size_t{7}, std::size_t{1}}) {
      IngestPipeline pipeline(test_config());
      push_chunked(pipeline, samples, chunk);
      const std::optional<EpochInfo> info = pipeline.flush();
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->epoch, 1u);
      EXPECT_EQ(info->rows, samples.size());
      EXPECT_EQ(pipeline.latest_snapshot_bytes(), expected)
          << "threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST_F(IngestPipelineTest, EpochArtifactsAreSplitInvariant) {
  const std::vector<data::Sample> samples = synthetic_stream(24, 11);  // 72 samples.
  IngestConfig config = test_config();
  config.epoch_samples = 30;  // Epochs cut at samples 30, 60, then the flush.

  const auto run = [&](const std::string& dir, std::size_t chunk) {
    IngestConfig local = config;
    local.out_dir = dir;
    IngestPipeline pipeline(local);
    push_chunked(pipeline, samples, chunk);
    (void)pipeline.flush();
    return pipeline.epoch();
  };
  const std::string dir_a = ::testing::TempDir() + "ingest_split_a";
  const std::string dir_b = ::testing::TempDir() + "ingest_split_b";
  ASSERT_EQ(run(dir_a, samples.size()), 3u);
  ASSERT_EQ(run(dir_b, 1), 3u);

  // Every persisted artefact — the full first epoch and both deltas — is
  // byte-identical whether the stream arrived as one batch or one-by-one.
  EXPECT_EQ(read_file(dir_a + "/epoch-1.snap"), read_file(dir_b + "/epoch-1.snap"));
  for (const int epoch : {2, 3}) {
    const std::string name = "/delta-" + std::to_string(epoch) + ".delta";
    EXPECT_EQ(read_file(dir_a + name), read_file(dir_b + name)) << name;
  }
}

TEST_F(IngestPipelineTest, SimTimeTriggerIsSplitInvariant) {
  const std::vector<data::Sample> samples = synthetic_stream(24, 13);
  IngestConfig config = test_config();
  config.epoch_sim_seconds = 5.0;  // Stream clock: sample timestamps, not wall time.

  IngestPipeline batched(config);
  batched.push_batch(samples);
  IngestPipeline single(config);
  for (const data::Sample& s : samples) single.push(s);

  EXPECT_GE(batched.epoch(), 2u);
  EXPECT_EQ(batched.epoch(), single.epoch());
  EXPECT_EQ(batched.latest_snapshot_bytes(), single.latest_snapshot_bytes());
}

TEST_F(IngestPipelineTest, GateSkipsEpochsUntilAMacQualifies) {
  const std::vector<data::Sample> samples = synthetic_stream(24, 17);
  IngestConfig config = test_config();
  config.rem.min_samples_per_mac = 16;
  IngestPipeline pipeline(config);

  // 15 samples = 5 per MAC: everyone is below the paper's 16-sample gate.
  push_chunked(pipeline, {samples.begin(), samples.begin() + 15}, 15);
  EXPECT_FALSE(pipeline.flush().has_value());
  EXPECT_EQ(pipeline.epoch(), 0u);
  EXPECT_FALSE(pipeline.flush().has_value());  // Nothing new since the skip.

  push_chunked(pipeline, {samples.begin() + 15, samples.end()}, 57);
  const std::optional<EpochInfo> info = pipeline.flush();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->rows, samples.size());  // All 24-sample MACs qualified.
  EXPECT_EQ(info->dropped_rows, 0u);
  EXPECT_EQ(pipeline.latest_snapshot_bytes(), batch_bytes(samples, config));
}

TEST_F(IngestPipelineTest, BelowGateMacsAreDroppedFromTheSnapshotOnly) {
  // 20 x A and 10 x B: B stays below the gate, so the snapshot carries A's
  // rows only — but the pipeline's raw stream keeps all 30.
  util::Rng rng(23);
  std::vector<data::Sample> samples;
  for (std::size_t i = 0; i < 30; ++i) {
    data::Sample s;
    s.position = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)};
    s.mac = *radio::MacAddress::parse(i % 3 == 2 ? kMacB : kMacA);
    s.channel = 6;
    s.rss_dbm = -60.0 + rng.gaussian(0.0, 2.0);
    s.timestamp_s = 0.5 * static_cast<double>(i);
    samples.push_back(s);
  }
  IngestConfig config = test_config();
  config.rem.min_samples_per_mac = 16;
  IngestPipeline pipeline(config);
  pipeline.push_batch(samples);
  const std::optional<EpochInfo> info = pipeline.flush();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->rows, 20u);
  EXPECT_EQ(info->dropped_rows, 10u);
  EXPECT_EQ(info->total_samples, 30u);
  EXPECT_EQ(pipeline.latest_snapshot_bytes(), batch_bytes(samples, config));
}

/// First `head` samples into epoch 1, the rest into epoch 2; returns both
/// full snapshots and the second epoch's delta, all serialised.
struct TwoEpochs {
  std::string snap1;
  std::string snap2;
  std::string delta2;
};

TwoEpochs make_two_epochs(const std::vector<data::Sample>& samples, std::size_t head,
                          const IngestConfig& config) {
  IngestPipeline pipeline(config);
  pipeline.push_batch(std::span<const data::Sample>(samples.data(), head));
  const std::optional<EpochInfo> first = pipeline.flush();
  EXPECT_TRUE(first.has_value() && !first->delta);
  TwoEpochs out;
  out.snap1 = pipeline.latest_snapshot_bytes();
  pipeline.push_batch(
      std::span<const data::Sample>(samples.data() + head, samples.size() - head));
  const std::optional<EpochInfo> second = pipeline.flush();
  EXPECT_TRUE(second.has_value() && second->delta);
  out.snap2 = pipeline.latest_snapshot_bytes();
  out.delta2 = pipeline.latest_delta_bytes();
  return out;
}

/// The section ids of a serialised REMDELT1, in file order.
std::vector<std::uint32_t> delta_section_ids(const std::string& bytes) {
  util::BinaryReader r(bytes);
  (void)r.view(store::kDeltaMagic.size());
  (void)r.u32();  // Version.
  std::vector<std::uint32_t> ids(r.u32());
  for (std::uint32_t& id : ids) {
    id = r.u32();
    (void)r.view(r.u64() + 4);  // CRC + payload.
  }
  return ids;
}

TEST_F(IngestPipelineTest, IngestDeltaReplayReconstructsNextEpochByteIdentically) {
  const std::vector<data::Sample> samples = synthetic_stream(24, 3);
  IngestConfig config = test_config();
  config.rem.min_samples_per_mac = 16;
  const TwoEpochs epochs = make_two_epochs(samples, 48, config);
  EXPECT_LT(epochs.delta2.size(), epochs.snap2.size());  // Base rows are not resent.
  // Rows only: the model and the REM are rebuilt on the consumer.
  EXPECT_EQ(delta_section_ids(epochs.delta2), (std::vector<std::uint32_t>{1, 2}));

  std::istringstream snap_in(epochs.snap1);
  const store::Snapshot base = store::load_snapshot(snap_in);
  std::istringstream delta_in(epochs.delta2);
  const store::SnapshotDelta delta = store::load_delta(delta_in);
  EXPECT_EQ(delta.base_epoch, 1u);
  EXPECT_EQ(delta.epoch, 2u);
  EXPECT_EQ(delta.base_rows, 48u);
  EXPECT_EQ(delta.final_rows, samples.size());

  const store::Snapshot applied = store::apply_delta(base, delta);
  std::ostringstream out;
  store::save_snapshot(out, applied);
  EXPECT_EQ(std::move(out).str(), epochs.snap2);
}

/// 46 samples: with the 16-sample gate and the first 30 in epoch 1, MAC A
/// qualifies in epoch 1 (20 rows) while MAC C, interleaved from the start,
/// stays below it (10 rows) until epoch 2 (A=28, C=18).
std::vector<data::Sample> late_qualifying_stream() {
  util::Rng rng(31);
  std::vector<data::Sample> samples;
  double t = 0.0;
  const auto add = [&](const char* mac) {
    data::Sample s;
    s.position = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)};
    s.mac = *radio::MacAddress::parse(mac);
    s.channel = 11;
    s.rss_dbm = -55.0 + rng.gaussian(0.0, 2.0);
    s.timestamp_s = (t += 0.25);
    samples.push_back(s);
  };
  for (std::size_t i = 0; i < 10; ++i) {
    add(kMacA);
    add(kMacC);
    add(kMacA);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    add(kMacC);
    add(kMacA);
  }
  return samples;
}

TEST_F(IngestPipelineTest, IngestDeltaHandlesLateQualifyingMacMidStreamInserts) {
  // MAC C's *early* rows become mid-stream insertions in epoch 2, which the
  // delta's position encoding must replay exactly.
  const std::vector<data::Sample> samples = late_qualifying_stream();
  IngestConfig config = test_config();
  config.rem.min_samples_per_mac = 16;
  const TwoEpochs epochs = make_two_epochs(samples, 30, config);

  std::istringstream snap_in(epochs.snap1);
  const store::Snapshot base = store::load_snapshot(snap_in);
  EXPECT_EQ(base.dataset.size(), 20u);
  std::istringstream delta_in(epochs.delta2);
  const store::SnapshotDelta delta = store::load_delta(delta_in);
  // 10 early C rows resurface + 16 new rows = 26 insertions into 46 finals.
  EXPECT_EQ(delta.final_rows, 46u);
  EXPECT_EQ(delta.added_rows.size(), 26u);

  const store::Snapshot applied = store::apply_delta(base, delta);
  std::ostringstream out;
  store::save_snapshot(out, applied);
  EXPECT_EQ(std::move(out).str(), epochs.snap2);
}

TEST_F(IngestPipelineTest, IngestDeltaSaveLoadRoundTripIsStable) {
  const std::vector<data::Sample> samples = synthetic_stream(20, 5);
  const TwoEpochs epochs = make_two_epochs(samples, 30, test_config());

  std::istringstream in(epochs.delta2);
  const store::SnapshotDelta delta = store::load_delta(in);
  std::ostringstream out;
  store::save_delta(out, delta);
  EXPECT_EQ(std::move(out).str(), epochs.delta2);

  const std::string path = ::testing::TempDir() + "ingest_roundtrip.delta";
  store::save_delta_file(path, delta);
  EXPECT_EQ(read_file(path), epochs.delta2);
  const store::SnapshotDelta reloaded = store::load_delta_file(path);
  EXPECT_EQ(reloaded.epoch, delta.epoch);
  EXPECT_EQ(reloaded.added_rows.size(), delta.added_rows.size());
}

TEST_F(IngestPipelineTest, IngestDeltaRejectsCorruptionAndWrongBase) {
  const std::vector<data::Sample> samples = synthetic_stream(20, 9);
  const TwoEpochs epochs = make_two_epochs(samples, 30, test_config());

  const auto load = [](std::string bytes) {
    std::istringstream in(std::move(bytes));
    return store::load_delta(in);
  };
  std::string bad_magic = epochs.delta2;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)load(bad_magic), std::runtime_error);

  EXPECT_THROW((void)load(epochs.delta2.substr(0, epochs.delta2.size() - 5)),
               std::runtime_error);

  // Flip a byte inside the Meta payload (16 B header + 16 B section header):
  // the section CRC must catch it.
  std::string flipped = epochs.delta2;
  flipped[40] = static_cast<char>(flipped[40] ^ 0x5a);
  EXPECT_THROW((void)load(flipped), std::runtime_error);

  // Replaying on the wrong base snapshot trips the recorded dataset CRC.
  const store::SnapshotDelta delta = load(epochs.delta2);
  std::istringstream snap2_in(epochs.snap2);
  const store::Snapshot wrong_base = store::load_snapshot(snap2_in);
  EXPECT_THROW((void)store::apply_delta(wrong_base, delta), std::runtime_error);
}

TEST_F(IngestPipelineTest, RecipeChangeFallsBackToAFullSnapshot) {
  const std::vector<data::Sample> samples = synthetic_stream(20, 19);
  IngestConfig config = test_config();
  config.out_dir = ::testing::TempDir() + "ingest_recipe_change";
  IngestPipeline pipeline(config);
  pipeline.push_batch(std::span<const data::Sample>(samples.data(), 30));
  ASSERT_TRUE(pipeline.flush().has_value());

  // The pipeline has no option to change its recipe mid-stream; editing its
  // (non-const) config in place makes the next pair not delta-able, so
  // make_delta throws and the epoch must ship whole.
  const_cast<IngestConfig&>(pipeline.config()).model = ml::ModelKind::PerMacKnn;
  pipeline.push_batch(std::span<const data::Sample>(samples.data() + 30, samples.size() - 30));
  const std::optional<EpochInfo> info = pipeline.flush();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->epoch, 2u);
  EXPECT_FALSE(info->delta);
  EXPECT_TRUE(pipeline.latest_delta_bytes().empty());
  EXPECT_EQ(info->snapshot_path, config.out_dir + "/epoch-2.snap");
  EXPECT_EQ(read_file(info->snapshot_path), pipeline.latest_snapshot_bytes());
}

// --- Replay holds for every model family at any width --------------------
// apply_delta refits a clone of the base model on the merged rows, so every
// family's fit() must depend only on its configuration and its rows.

class IngestDeltaReplay
    : public ::testing::TestWithParam<std::tuple<ml::ModelKind, std::size_t>> {
 protected:
  void SetUp() override {
    previous_threads_ = exec::thread_count();
    exec::set_thread_count(std::get<1>(GetParam()));
  }
  void TearDown() override { exec::set_thread_count(previous_threads_); }
  std::size_t previous_threads_ = 1;
};

TEST_P(IngestDeltaReplay, RebuildsTheNextEpochByteIdentically) {
  const std::vector<data::Sample> samples = late_qualifying_stream();
  IngestConfig config = test_config();
  config.model = std::get<0>(GetParam());
  config.rem.min_samples_per_mac = 16;
  const TwoEpochs epochs = make_two_epochs(samples, 30, config);

  std::istringstream snap_in(epochs.snap1);
  const store::Snapshot base = store::load_snapshot(snap_in);
  std::istringstream delta_in(epochs.delta2);
  const store::Snapshot applied = store::apply_delta(base, store::load_delta(delta_in));
  std::ostringstream out;
  store::save_snapshot(out, applied);
  EXPECT_EQ(std::move(out).str(), epochs.snap2);
  EXPECT_EQ(epochs.snap2, batch_bytes(samples, config));
}

INSTANTIATE_TEST_SUITE_P(AllModelsAtOneAndFourThreads, IngestDeltaReplay,
                         ::testing::Combine(::testing::ValuesIn(ml::all_model_kinds(true)),
                                            ::testing::Values(std::size_t{1}, std::size_t{4})),
                         [](const auto& info) {
                           std::string name = ml::model_kind_name(std::get<0>(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name + "_threads" + std::to_string(std::get<1>(info.param));
                         });

/// Collects every pushed sample, in order.
struct CollectingSink final : data::SampleSink {
  void push(const data::Sample& sample) override { samples.push_back(sample); }
  std::vector<data::Sample> samples;
};

TEST(IngestTailSource, TailsCsvAcrossAppendsSkippingHeaderAndBadRows) {
  const std::string path = ::testing::TempDir() + "ingest_tail.csv";
  std::remove(path.c_str());
  FileTailSource source(path, stream_format_for_path(path));
  EXPECT_EQ(source.format(), StreamFormat::Csv);

  CollectingSink sink;
  EXPECT_EQ(source.poll(sink), 0u);  // File not created yet: not an error.

  {
    std::ofstream out(path, std::ios::binary);
    out << "x,y,z,ssid,rss_dbm,mac,channel,timestamp_s,uav_id,waypoint_index\n";
    out << "1.5,1.0,0.5,lab,-52.5,02:00:00:00:00:0a,6,1.0,1,0\n";
    out << "not,a,row\n";
    out << "2.5,nan,0.5,lab,-60.0,02:00:00:00:00:0a,6,2.0,1,1\n";
    out << "0.5,2.0,1.5,lab,-48.0,02:00:00:00:00:0b,11,3.0,1,2\n";
    out << "3.0,1.0";  // Torn line: the tail must wait for the rest.
  }
  EXPECT_EQ(source.poll(sink), 2u);
  EXPECT_EQ(sink.samples.size(), 2u);
  EXPECT_EQ(source.stats().accepted, 2u);
  EXPECT_EQ(source.stats().rejected, 2u);
  EXPECT_EQ(source.stats().lines, 5u);  // Header + 4 complete rows.
  EXPECT_DOUBLE_EQ(sink.samples[0].position.x, 1.5);
  EXPECT_EQ(sink.samples[1].mac.to_string(), kMacB);

  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << ",0.75,lab,-44.0,02:00:00:00:00:0b,11,4.0,2,3\n";  // Completes the torn line.
  }
  EXPECT_EQ(source.poll(sink), 1u);
  EXPECT_EQ(sink.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(sink.samples[2].position.x, 3.0);
  EXPECT_DOUBLE_EQ(sink.samples[2].rss_dbm, -44.0);
  EXPECT_EQ(source.stats().accepted, 3u);
  EXPECT_EQ(source.poll(sink), 0u);  // Nothing new.
}

TEST(IngestTailSource, TailsJsonlAndCountsRejectedRows) {
  const std::string path = ::testing::TempDir() + "ingest_tail.jsonl";
  std::remove(path.c_str());
  EXPECT_EQ(stream_format_for_path(path), StreamFormat::Jsonl);
  EXPECT_EQ(stream_format_for_path("stream.ndjson"), StreamFormat::Jsonl);
  EXPECT_EQ(stream_format_for_path("stream.csv"), StreamFormat::Csv);
  EXPECT_EQ(stream_format_for_path("stream"), StreamFormat::Csv);

  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"x\":1.5,\"y\":1.0,\"z\":0.5,\"ssid\":\"lab\",\"rss_dbm\":-52.5,"
           "\"mac\":\"02:00:00:00:00:0a\",\"channel\":6,\"timestamp_s\":1.0,"
           "\"uav_id\":1,\"waypoint_index\":0}\n";
    out << "{\"x\":1.0,\"rssi\":-40}\n";  // Unknown field: rejected, counted.
    out << "{\"x\":2.5,\"y\":1.5,\"z\":0.5,\"ssid\":\"lab\",\"rss_dbm\":-58.0,"
           "\"mac\":\"02:00:00:00:00:0b\",\"channel\":11,\"timestamp_s\":2.0,"
           "\"uav_id\":1,\"waypoint_index\":1}\n";
  }
  FileTailSource source(path, stream_format_for_path(path));
  CollectingSink sink;
  EXPECT_EQ(source.poll(sink), 2u);
  EXPECT_EQ(source.stats().rejected, 1u);
  EXPECT_EQ(sink.samples.size(), 2u);
  EXPECT_EQ(sink.samples[1].mac.to_string(), kMacB);
}

}  // namespace
}  // namespace remgen::ingest
