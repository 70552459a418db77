// Versioned binary snapshot of a REM campaign's durable state.
//
// A snapshot bundles the three artefacts a serving process needs: the
// preprocessed dataset (with its MAC/channel context), the baked
// RadioEnvironmentMap voxel grid, and the trained model parameters. The
// on-disk format is endian-safe (explicit little-endian fields), versioned,
// and integrity-checked: every section carries a CRC-32 so truncation and
// bit-rot fail loudly at load time instead of silently corrupting
// predictions. Loading a model from a snapshot yields bit-identical
// predictions to the in-process original (see ml::Serializable).
//
// Layout:
//   magic   "REMSNAP1"                      8 bytes
//   version u32 (currently 1)
//   count   u32 number of sections
//   section u32 id | u64 payload size | u32 crc32(payload) | payload
// Section ids: 1 = dataset, 2 = REM raster, 3 = model. Unknown ids are
// skipped (their CRC is still verified), so older readers tolerate newer
// writers that append sections.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "core/rem.hpp"
#include "data/dataset.hpp"
#include "ml/estimator.hpp"

namespace remgen::util {
class BinaryWriter;
class BinaryReader;
}  // namespace remgen::util

namespace remgen::store {

/// Format constants, exposed for tests and tooling.
inline constexpr std::string_view kSnapshotMagic = "REMSNAP1";
inline constexpr std::uint32_t kSnapshotVersion = 1;

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
  std::unique_ptr<ml::Estimator> model;
};

/// Serialises `snapshot` to `out`. Sections are written for every present
/// member (the dataset always, REM and model when set).
void save_snapshot(std::ostream& out, const Snapshot& snapshot);

/// Parses a snapshot from `in`. Throws std::runtime_error on bad magic,
/// unsupported version, truncated input, or CRC mismatch.
[[nodiscard]] Snapshot load_snapshot(std::istream& in);

/// save_snapshot to a file; throws std::runtime_error if unwritable.
void save_snapshot_file(const std::string& path, const Snapshot& snapshot);

/// load_snapshot from a file; throws std::runtime_error if unreadable.
[[nodiscard]] Snapshot load_snapshot_file(const std::string& path);

/// The dataset row / section payload encodings, shared with the REMDELT1
/// delta format (store/delta.hpp) so both formats stay bit-compatible.
/// A row with an empty SSID: eight 8-byte fields, the 8-byte SSID length
/// and a 6-byte MAC.
inline constexpr std::size_t kSampleRowMinBytes = 9 * 8 + 6;
void write_sample_row(util::BinaryWriter& w, const data::Sample& s);
[[nodiscard]] data::Sample read_sample_row(util::BinaryReader& r);
void write_dataset_payload(util::BinaryWriter& w, const data::Dataset& dataset);

}  // namespace remgen::store
