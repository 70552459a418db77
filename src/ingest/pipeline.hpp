// IngestPipeline: streaming ingestion with incremental REM epochs.
//
// The batch pipeline is collect -> filter -> fit -> rasterise -> snapshot,
// run once. This subsystem runs the same pipeline continuously: samples
// stream in (from a live mission::Campaign via CampaignConfig::sample_sink,
// or a tailed CSV/JSONL file via ingest::FileTailSource) and accumulate in
// arrival order. When an epoch trigger fires — every N samples, every T
// sim-seconds of sample timestamps, or an explicit flush() — the snapshot
// is rebuilt from the whole stream by store::build_snapshot (the gate, a
// fresh estimator fitted on the shared exec pool, the REM sweep) and
// emitted: the first epoch as a full REMSNAP1, later epochs additionally as
// a rows-only REMDELT1 delta against the previous epoch (store/delta.hpp),
// from which a consumer rebuilds the model and REM; both CRC-checked. The
// snapshot is hot-published into a net::Server as a ready QueryEngine
// tagged with the monotonic epoch id (surfaced in "stats" and
// net.map.<name>.epoch).
//
// Determinism: every trigger depends only on the sample stream, never on
// wall clock or thread timing, and each epoch build is the one batch recipe
// (store::build_snapshot). Identical streams + seeds therefore produce
// byte-identical epoch artefacts at any --threads, and the final flushed
// epoch is byte-identical to the one-shot batch build over the union of the
// stream — regardless of how the stream was split into pushes. Not
// thread-safe: one producer thread pushes; the published engines are the
// concurrent-reader surface.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rem_builder.hpp"
#include "data/dataset.hpp"
#include "data/sink.hpp"
#include "geom/aabb.hpp"
#include "ml/model_zoo.hpp"
#include "store/snapshot.hpp"

namespace remgen::net {
class Server;
}  // namespace remgen::net

namespace remgen::ingest {

struct IngestConfig {
  ml::ModelKind model = ml::ModelKind::KnnScaled16;  ///< Refitted every epoch.
  geom::Aabb volume{{0.0, 0.0, 0.0}, {3.74, 3.20, 2.10}};  ///< Raster bounds
                                                           ///< (paper apartment).
  core::RemBuilderConfig rem;        ///< Voxel size + the >= 16-sample MAC gate.

  // Epoch triggers (both optional; either firing builds an epoch).
  std::size_t epoch_samples = 0;     ///< Build every N accepted samples (0 = off).
  double epoch_sim_seconds = 0.0;    ///< Build every T seconds of sample
                                     ///< timestamps (0 = off). Sim time, not
                                     ///< wall clock: deterministic.

  bool emit_deltas = true;           ///< Emit REMDELT1 for epochs after the first.
  std::string out_dir;               ///< Write epoch files here ("" = in-memory only).
  std::size_t cache_bytes = 64 << 20;  ///< Result-cache budget of published engines.

  net::Server* server = nullptr;     ///< Hot-publish target (not owned; optional).
  std::string map = "rem";           ///< Map name published under.
};

/// What one epoch produced.
struct EpochInfo {
  std::uint64_t epoch = 0;           ///< Monotonic, starting at 1.
  std::size_t total_samples = 0;     ///< Raw samples when the epoch was cut.
  std::size_t rows = 0;              ///< Prepared rows in the snapshot.
  std::size_t dropped_rows = 0;      ///< Raw rows - snapshot rows (below the gate).
  std::size_t snapshot_bytes = 0;    ///< Serialised REMSNAP1 size.
  bool delta = false;                ///< A REMDELT1 was emitted for this epoch.
  std::size_t delta_bytes = 0;       ///< Serialised delta size (0 when !delta).
  std::string snapshot_path;         ///< File written ("" unless out_dir set;
                                     ///< full epochs only).
  std::string delta_path;            ///< Delta file written ("" when !delta).
  bool published = false;            ///< Handed to the net::Server.
};

/// The streaming half of REM generation. See the header comment.
class IngestPipeline final : public data::SampleSink {
 public:
  explicit IngestPipeline(IngestConfig config);

  /// Accepts one sample; builds + publishes an epoch when a trigger fires.
  void push(const data::Sample& sample) override;
  void push_batch(std::span<const data::Sample> samples) override;

  /// Explicit epoch trigger: builds from everything ingested since the last
  /// epoch. Returns the epoch's info, or nullopt when there is nothing new
  /// or no MAC passes the gate yet.
  std::optional<EpochInfo> flush();

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t samples() const noexcept { return raw_.size(); }
  /// Serialised REMSNAP1 of the latest epoch (empty before the first).
  [[nodiscard]] const std::string& latest_snapshot_bytes() const noexcept {
    return latest_snapshot_bytes_;
  }
  /// Serialised REMDELT1 of the latest epoch ("" when it was a full emit).
  [[nodiscard]] const std::string& latest_delta_bytes() const noexcept {
    return latest_delta_bytes_;
  }
  [[nodiscard]] const std::vector<EpochInfo>& history() const noexcept { return history_; }
  [[nodiscard]] const IngestConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::optional<EpochInfo> build_epoch();

  IngestConfig config_;
  data::Dataset raw_;              ///< Every accepted sample, arrival order.
  std::uint64_t epoch_ = 0;
  std::size_t samples_since_epoch_ = 0;
  bool have_epoch_start_ts_ = false;
  double epoch_start_ts_ = 0.0;    ///< First timestamp after the last epoch.
  double max_ts_ = 0.0;            ///< Largest timestamp seen (stream clock).
  store::Snapshot previous_;       ///< Base for the next delta.
  std::string latest_snapshot_bytes_;
  std::string latest_delta_bytes_;
  std::vector<EpochInfo> history_;
};

}  // namespace remgen::ingest
