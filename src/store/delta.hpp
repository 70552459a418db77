// REMDELT1: a versioned snapshot delta — what changed between two epochs.
//
// Streaming ingestion refits and re-rasters every epoch, but most of the
// resulting full snapshot is bytes the previous epoch already shipped: the
// paper's >= 16-samples gate is monotone, so the previous prepared dataset
// is a strict subsequence of the next one, and per-MAC model families only
// move the raster layers whose sample sets changed. A delta captures
// exactly that difference and is replayable: apply_delta(base, delta)
// reconstructs the next epoch's full snapshot byte-identically (enforced by
// tests), so a consumer can follow a stream of deltas and at any point
// serialise state indistinguishable from the one-shot batch build.
//
// Layout mirrors REMSNAP1 (util::BinaryWriter little-endian framing):
//   magic   "REMDELT1"                      8 bytes
//   version u32 (currently 1)
//   count   u32 number of sections
//   section u32 id | u64 payload size | u32 crc32(payload) | payload
// Sections:
//   1 Meta        base_epoch u64 | epoch u64 | base_rows u64 |
//                 base_dataset_crc u32 (crc32 of the base snapshot's dataset
//                 section payload — binds the delta to its exact base) |
//                 final_rows u64
//   2 DatasetRows count u64, then per row: u64 position in the final
//                 prepared dataset | the REMSNAP1 row encoding. Rows absent
//                 here are the base rows, in base order, filling the
//                 remaining positions.
//   3 Model       the full refitted model (ml::save_model framing). Models
//                 are small next to the raster; carrying them whole keeps
//                 byte-identity trivially exact for every model family.
//   4 RemPatch    grid bounds + dims | full MAC list of the new REM |
//                 changed-layer count, then per changed MAC: mac | the
//                 z-major cell run. Layers absent here are copied from the
//                 base REM. Changed = any cell differs bitwise, so per-MAC
//                 families ship only the layers that moved and global
//                 families degrade gracefully to a full patch.
// Unknown ids are CRC-checked and skipped, as in REMSNAP1.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "store/snapshot.hpp"

namespace remgen::store {

inline constexpr std::string_view kDeltaMagic = "REMDELT1";
inline constexpr std::uint32_t kDeltaVersion = 1;

/// Section identifiers within a delta.
enum class DeltaSectionId : std::uint32_t {
  Meta = 1,
  DatasetRows = 2,
  Model = 3,
  RemPatch = 4,
};

/// One inserted prepared-dataset row and its position in the final dataset.
struct DeltaRow {
  std::uint64_t position = 0;
  data::Sample sample;
};

/// One replaced/added REM layer (z-major cell order, as in REMSNAP1).
struct DeltaRemLayer {
  radio::MacAddress mac;
  std::vector<core::RemCell> cells;
};

/// The REM patch: the new grid + MAC list, with only the changed layers.
struct DeltaRemPatch {
  geom::Aabb bounds;
  std::uint64_t nx = 0;
  std::uint64_t ny = 0;
  std::uint64_t nz = 0;
  std::vector<radio::MacAddress> macs;    ///< Full MAC list of the new REM.
  std::vector<DeltaRemLayer> layers;      ///< Changed/new layers only.
};

/// An epoch-to-epoch snapshot difference.
struct SnapshotDelta {
  std::uint64_t base_epoch = 0;
  std::uint64_t epoch = 0;
  std::uint64_t base_rows = 0;
  std::uint32_t base_dataset_crc = 0;
  std::uint64_t final_rows = 0;
  std::vector<DeltaRow> added_rows;
  std::string model_bytes;                ///< ml::save_model framing; empty = no model.
  std::optional<DeltaRemPatch> rem;       ///< Absent when neither epoch has a REM.
};

/// CRC of a snapshot's serialised dataset section payload — the token that
/// binds a delta to its exact base.
[[nodiscard]] std::uint32_t dataset_payload_crc(const Snapshot& snapshot);

/// Computes the delta from `base` to `next`. Throws std::runtime_error when
/// the pair is not delta-able: base dataset rows are not a subsequence of
/// next's, grid geometry changed, or a base REM layer disappeared.
[[nodiscard]] SnapshotDelta make_delta(const Snapshot& base, const Snapshot& next,
                                       std::uint64_t base_epoch, std::uint64_t epoch);

/// Replays `delta` on top of `base`. Throws std::runtime_error when the base
/// does not match the delta's recorded row count / CRC, when the REM patch
/// grid differs from the base REM's (or, with no base REM, is not exactly
/// the size of a shipped layer for every MAC), or on internal
/// inconsistencies. The result serialises byte-identically to the full
/// snapshot the delta was computed against.
[[nodiscard]] Snapshot apply_delta(const Snapshot& base, const SnapshotDelta& delta);

/// Serialises / parses the wire format. load_delta throws std::runtime_error
/// on bad magic, unsupported version, truncation, or CRC mismatch.
void save_delta(std::ostream& out, const SnapshotDelta& delta);
[[nodiscard]] SnapshotDelta load_delta(std::istream& in);

void save_delta_file(const std::string& path, const SnapshotDelta& delta);
[[nodiscard]] SnapshotDelta load_delta_file(const std::string& path);

}  // namespace remgen::store
