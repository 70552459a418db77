// Versioned binary snapshot of a REM campaign's durable state.
//
// A snapshot bundles what a serving process needs: the preprocessed dataset
// (whose MACs are the ones the snapshot answers for), the baked
// RadioEnvironmentMap voxel grid, and the model. The model is not shipped,
// only named: a snapshot's model is its zoo kind fitted on its Dataset rows,
// so the Model section holds the kind name and load_snapshot refits it.
// Every zoo fit is deterministic, so the loaded model predicts
// bit-identically to the one that was saved. The on-disk format is
// endian-safe (explicit little-endian fields), versioned, and
// integrity-checked: every section carries a CRC-32 so truncation and
// bit-rot fail loudly at load time instead of silently corrupting
// predictions.
//
// Layout:
//   magic   "REMSNAP1"                      8 bytes
//   version u32 (currently 2)
//   count   u32 number of sections
//   section u32 id | u64 payload size | u32 crc32(payload) | payload
// (the framing store/sections.hpp shares with REMDELT1).
// Section ids: 1 = dataset rows, 2 = REM raster, 3 = model (one
// length-prefixed string, ml::model_kind_name). Unknown ids are skipped
// (their CRC is still verified), so older readers tolerate newer writers
// that append sections.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/rem.hpp"
#include "core/rem_builder.hpp"
#include "data/dataset.hpp"
#include "ml/estimator.hpp"
#include "ml/model_zoo.hpp"

namespace remgen::util {
class BinaryWriter;
class BinaryReader;
}  // namespace remgen::util

namespace remgen::store {

/// Format constants, exposed for tests and tooling.
inline constexpr std::string_view kSnapshotMagic = "REMSNAP1";
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Section identifiers within a snapshot.
enum class SectionId : std::uint32_t {
  Dataset = 1,
  Rem = 2,
  Model = 3,
};

/// The durable state of a campaign: what a query-serving process loads.
struct Snapshot {
  data::Dataset dataset;
  std::optional<core::RadioEnvironmentMap> rem;
  /// A zoo model (ml::make_model) fitted on exactly `dataset`'s rows.
  std::unique_ptr<ml::Estimator> model;
};

/// Serialises `snapshot` to `out`. Sections are written for every present
/// member (the dataset always, REM and model when set). Throws
/// std::runtime_error for a model without a zoo kind (Estimator::kind()).
void save_snapshot(std::ostream& out, const Snapshot& snapshot);

/// Parses a snapshot from `in` and refits its model, after every section is
/// read, on the Dataset rows. Throws std::runtime_error on bad magic, any
/// version but kSnapshotVersion, truncated input, a CRC mismatch, a Model
/// section naming no zoo kind, or a Model section with no rows to fit on.
[[nodiscard]] Snapshot load_snapshot(std::istream& in);

/// The one batch recipe from raw samples to a servable snapshot: the
/// >= min_samples_per_mac gate, a fresh `kind` estimator fitted on the
/// gated rows, and the REM swept over `volume`. Every snapshot built from a
/// raw dataset (remgen rem / campaign --snapshot-out, each ingest epoch)
/// goes through here, so stream and batch builds agree byte for byte.
/// nullopt when no MAC reaches the gate.
[[nodiscard]] std::optional<Snapshot> build_snapshot(const data::Dataset& raw,
                                                     ml::ModelKind kind,
                                                     const geom::Aabb& volume,
                                                     const core::RemBuilderConfig& config);

/// save_snapshot to a file (through util::write_file); throws
/// std::runtime_error if unwritable.
void save_snapshot_file(const std::string& path, const Snapshot& snapshot);

/// load_snapshot from a file; throws std::runtime_error if unreadable.
[[nodiscard]] Snapshot load_snapshot_file(const std::string& path);

/// The MAC, dataset row and section payload encodings, shared with the
/// REMDELT1 delta format (store/delta.hpp) so both formats stay
/// bit-compatible. A MAC is 6 octets in network order.
inline constexpr std::size_t kMacBytes = 6;
void save_mac(util::BinaryWriter& w, const radio::MacAddress& mac);
[[nodiscard]] radio::MacAddress load_mac(util::BinaryReader& r);
/// A row with an empty SSID: eight 8-byte fields, the 8-byte SSID length
/// and a 6-byte MAC.
inline constexpr std::size_t kSampleRowMinBytes = 9 * 8 + 6;
void write_sample_row(util::BinaryWriter& w, const data::Sample& s);
/// Applies the CSV row rule: throws std::runtime_error naming the field for
/// a non-finite coordinate, RSS or timestamp, or an integer field outside int.
[[nodiscard]] data::Sample read_sample_row(util::BinaryReader& r);
void write_dataset_payload(util::BinaryWriter& w, const data::Dataset& dataset);

}  // namespace remgen::store
