// REMDELT1: a versioned snapshot delta — the rows one epoch added.
//
// In the paper the REM is a model fitted to the sampled RSS readings and
// swept over the scan volume, so an epoch's model and raster follow
// entirely from its prepared rows and its recipe (model family + grid). A
// delta therefore ships only the rows: the paper's >= 16-samples gate is
// monotone, so the previous prepared dataset is a strict subsequence of the
// next one, and the inserted rows plus their final positions rebuild it.
// apply_delta(base, delta) merges the rows, refits the base model's zoo kind
// on them and sweeps the base REM's grid with core::build_rem — the
// same code store::build_snapshot runs on the producer — so the result
// serialises byte-identically to the next epoch's full snapshot (enforced
// by tests for every model family). A consumer can follow a stream of
// deltas and at any point serialise state indistinguishable from the
// one-shot batch build; it pays a refit and a sweep per delta instead of
// receiving them.
//
// Layout mirrors REMSNAP1 (the store/sections.hpp framing, little-endian):
//   magic   "REMDELT1"                      8 bytes
//   version u32 (currently 2)
//   count   u32 number of sections
//   section u32 id | u64 payload size | u32 crc32(payload) | payload
// Sections:
//   1 Meta        base_epoch u64 | epoch u64 | base_rows u64 |
//                 base_dataset_crc u32 (crc32 of the base snapshot's dataset
//                 section payload — binds the delta to its exact base) |
//                 final_rows u64 | model str (the base model's name(): the
//                 recipe the consumer refits with)
//   2 DatasetRows count u64, then per row: u64 position in the final
//                 prepared dataset | the REMSNAP1 row encoding. Rows absent
//                 here are the base rows, in base order, filling the
//                 remaining positions. Omitted when no row was inserted.
// Unknown ids are CRC-checked and skipped, as in REMSNAP1.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "store/snapshot.hpp"

namespace remgen::store {

inline constexpr std::string_view kDeltaMagic = "REMDELT1";
inline constexpr std::uint32_t kDeltaVersion = 2;

/// Section identifiers within a delta.
enum class DeltaSectionId : std::uint32_t {
  Meta = 1,
  DatasetRows = 2,
};

/// One inserted prepared-dataset row and its position in the final dataset.
struct DeltaRow {
  std::uint64_t position = 0;
  data::Sample sample;
};

/// An epoch-to-epoch snapshot difference: the inserted rows.
struct SnapshotDelta {
  std::uint64_t base_epoch = 0;
  std::uint64_t epoch = 0;
  std::uint64_t base_rows = 0;
  std::uint32_t base_dataset_crc = 0;
  std::uint64_t final_rows = 0;
  std::string model_name;                 ///< The base model's name().
  std::vector<DeltaRow> added_rows;
};

/// CRC of a snapshot's serialised dataset section payload — the token that
/// binds a delta to its exact base.
[[nodiscard]] std::uint32_t dataset_payload_crc(const Snapshot& snapshot);

/// Computes the delta from `base` to `next`. Throws std::runtime_error when
/// the pair is not delta-able: either epoch lacks a model or a REM, the
/// model names or REM grids differ, or base dataset rows are not a
/// subsequence of next's.
[[nodiscard]] SnapshotDelta make_delta(const Snapshot& base, const Snapshot& next,
                                       std::uint64_t base_epoch, std::uint64_t epoch);

/// Replays `delta` on top of `base`: merges the rows, refits the base model's
/// zoo kind on them and sweeps the base REM's grid. Throws
/// std::runtime_error when the base has no zoo model or no REM, its model name
/// differs from the delta's, it does not match the recorded row count /
/// CRC, or the rows are inconsistent. The result serialises
/// byte-identically to the full snapshot the delta was computed against.
[[nodiscard]] Snapshot apply_delta(const Snapshot& base, const SnapshotDelta& delta);

/// Serialises / parses the wire format. load_delta throws std::runtime_error
/// on bad magic, unsupported version, truncation, or CRC mismatch.
void save_delta(std::ostream& out, const SnapshotDelta& delta);
[[nodiscard]] SnapshotDelta load_delta(std::istream& in);

void save_delta_file(const std::string& path, const SnapshotDelta& delta);
[[nodiscard]] SnapshotDelta load_delta_file(const std::string& path);

}  // namespace remgen::store
