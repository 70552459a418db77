#include "ingest/pipeline.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "serve/engine.hpp"
#include "store/delta.hpp"
#include "util/file.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace remgen::ingest {

IngestPipeline::IngestPipeline(IngestConfig config) : config_(std::move(config)) {
  if (!config_.out_dir.empty()) {
    std::filesystem::create_directories(config_.out_dir);
  }
}

void IngestPipeline::push(const data::Sample& sample) {
  raw_.add(sample);
  ++samples_since_epoch_;
  REMGEN_COUNTER_ADD("ingest.samples", 1);

  if (config_.epoch_sim_seconds > 0.0) {
    if (!have_epoch_start_ts_) {
      have_epoch_start_ts_ = true;
      epoch_start_ts_ = sample.timestamp_s;
      max_ts_ = sample.timestamp_s;
    } else if (sample.timestamp_s > max_ts_) {
      max_ts_ = sample.timestamp_s;
    }
  }

  // Triggers read only stream state (counts and sample timestamps), so an
  // epoch cut lands on the same sample no matter how the stream was batched.
  const bool by_count =
      config_.epoch_samples > 0 && samples_since_epoch_ >= config_.epoch_samples;
  const bool by_time = config_.epoch_sim_seconds > 0.0 && have_epoch_start_ts_ &&
                       max_ts_ - epoch_start_ts_ >= config_.epoch_sim_seconds;
  if (by_count || by_time) {
    (void)build_epoch();
  }
}

void IngestPipeline::push_batch(std::span<const data::Sample> samples) {
  for (const data::Sample& sample : samples) push(sample);
}

std::optional<EpochInfo> IngestPipeline::flush() { return build_epoch(); }

std::optional<EpochInfo> IngestPipeline::build_epoch() {
  // Reset the triggers first: even when no MAC passes the gate yet, the
  // decision not to emit consumed this window — the next one starts fresh.
  const std::size_t new_samples = samples_since_epoch_;
  samples_since_epoch_ = 0;
  have_epoch_start_ts_ = false;
  if (new_samples == 0) return std::nullopt;

  REMGEN_SCOPE("ingest.epoch");
  std::optional<store::Snapshot> built =
      store::build_snapshot(raw_, config_.model, config_.volume, config_.rem);
  if (!built.has_value()) {
    util::logf(util::LogLevel::Info, "ingest",
               "epoch skipped: no MAC at the {}-sample gate yet ({} samples)",
               config_.rem.min_samples_per_mac, raw_.size());
    return std::nullopt;
  }
  store::Snapshot& snapshot = *built;

  EpochInfo info;
  info.epoch = ++epoch_;
  info.total_samples = raw_.size();
  info.rows = snapshot.dataset.size();
  info.dropped_rows = info.total_samples - info.rows;

  std::ostringstream snap_out;
  store::save_snapshot(snap_out, snapshot);
  latest_snapshot_bytes_ = std::move(snap_out).str();
  latest_delta_bytes_.clear();
  info.snapshot_bytes = latest_snapshot_bytes_.size();

  // Epochs after the first ride as rows-only deltas when the pair is
  // delta-able (it always is under the monotone gate and a fixed recipe; a
  // model or grid change makes make_delta throw and falls back to a full
  // emit).
  if (config_.emit_deltas && epoch_ > 1) {
    try {
      const store::SnapshotDelta delta =
          store::make_delta(previous_, snapshot, epoch_ - 1, epoch_);
      std::ostringstream delta_out;
      store::save_delta(delta_out, delta);
      latest_delta_bytes_ = std::move(delta_out).str();
      info.delta = true;
      info.delta_bytes = latest_delta_bytes_.size();
      REMGEN_COUNTER_ADD("ingest.deltas", 1);
    } catch (const std::exception& e) {
      util::logf(util::LogLevel::Warn, "ingest",
                 "epoch {} not delta-able ({}); emitting full snapshot", epoch_, e.what());
    }
  }

  if (!config_.out_dir.empty()) {
    if (info.delta) {
      info.delta_path = util::format("{}/delta-{}.delta", config_.out_dir, epoch_);
      util::write_file(info.delta_path, latest_delta_bytes_);
    } else {
      info.snapshot_path = util::format("{}/epoch-{}.snap", config_.out_dir, epoch_);
      util::write_file(info.snapshot_path, latest_snapshot_bytes_);
    }
  }

  if (config_.server != nullptr) {
    // Build the engine from the serialised bytes: proves the round-trip on
    // every publish and gives the engine its own snapshot copy (the load
    // refits the model on the epoch's rows).
    std::istringstream in(latest_snapshot_bytes_);
    auto engine = std::make_shared<const serve::QueryEngine>(store::load_snapshot(in),
                                                             config_.cache_bytes);
    config_.server->publish(config_.map, std::move(engine), epoch_);
    info.published = true;
    REMGEN_COUNTER_ADD("ingest.publishes", 1);
  }

  previous_ = std::move(snapshot);
  REMGEN_COUNTER_ADD("ingest.epochs", 1);
  REMGEN_GAUGE_SET("ingest.epoch", static_cast<double>(epoch_));
  REMGEN_GAUGE_SET("ingest.live_samples", static_cast<double>(raw_.size()));
  util::logf(util::LogLevel::Info, "ingest",
             "epoch {}: {} rows ({} below gate), snapshot {} B{}{}", epoch_, info.rows,
             info.dropped_rows, info.snapshot_bytes,
             info.delta ? util::format(", delta {} B", info.delta_bytes) : std::string(),
             info.published ? ", published" : "");
  history_.push_back(info);
  return info;
}

}  // namespace remgen::ingest
