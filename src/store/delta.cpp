#include "store/delta.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "store/sections.hpp"
#include "util/binary_io.hpp"
#include "util/file.hpp"
#include "util/fmt.hpp"

namespace remgen::store {

namespace {

/// One row's REMSNAP1 encoding as a comparable byte string.
std::string row_bytes(const data::Sample& s) {
  util::BinaryWriter w;
  write_sample_row(w, s);
  return std::string(w.buffer().data(), w.size());
}

/// Bitwise grid equality: the consumer sweeps the base REM's grid, so it
/// must be exactly the next epoch's.
bool grid_equal(const geom::GridGeometry& a, const geom::GridGeometry& b) {
  const auto same = [](const geom::Vec3& u, const geom::Vec3& v) {
    return std::bit_cast<std::uint64_t>(u.x) == std::bit_cast<std::uint64_t>(v.x) &&
           std::bit_cast<std::uint64_t>(u.y) == std::bit_cast<std::uint64_t>(v.y) &&
           std::bit_cast<std::uint64_t>(u.z) == std::bit_cast<std::uint64_t>(v.z);
  };
  return same(a.bounds().min, b.bounds().min) && same(a.bounds().max, b.bounds().max) &&
         a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz();
}

}  // namespace

std::uint32_t dataset_payload_crc(const Snapshot& snapshot) {
  util::BinaryWriter payload;
  write_dataset_payload(payload, snapshot.dataset);
  return util::crc32(payload.buffer());
}

SnapshotDelta make_delta(const Snapshot& base, const Snapshot& next, std::uint64_t base_epoch,
                         std::uint64_t epoch) {
  REMGEN_SCOPE("store.make_delta");
  if (base.model == nullptr || next.model == nullptr || !base.rem.has_value() ||
      !next.rem.has_value()) {
    throw std::runtime_error("delta: both epochs need a model and a REM");
  }
  // The consumer refits the base model's family and sweeps the base grid,
  // so the recipe must not have changed between the epochs.
  if (base.model->name() != next.model->name()) {
    throw std::runtime_error(util::format("delta: model changed between epochs ({} -> {})",
                                          base.model->name(), next.model->name()));
  }
  if (!grid_equal(base.rem->geometry(), next.rem->geometry())) {
    throw std::runtime_error("delta: REM grid geometry changed between epochs");
  }
  SnapshotDelta delta;
  delta.base_epoch = base_epoch;
  delta.epoch = epoch;
  delta.base_rows = base.dataset.size();
  delta.base_dataset_crc = dataset_payload_crc(base);
  delta.final_rows = next.dataset.size();
  delta.model_name = base.model->name();

  // The monotone gate means base rows appear in next in the same relative
  // order; a greedy subsequence walk recovers the inserted rows and their
  // final positions. Comparison is on the serialised row bytes, the same
  // encoding byte-identity is measured in.
  const auto& base_rows = base.dataset.samples();
  const auto& next_rows = next.dataset.samples();
  std::size_t b = 0;
  for (std::size_t i = 0; i < next_rows.size(); ++i) {
    if (b < base_rows.size() && row_bytes(next_rows[i]) == row_bytes(base_rows[b])) {
      ++b;
      continue;
    }
    delta.added_rows.push_back(DeltaRow{i, next_rows[i]});
  }
  if (b != base_rows.size()) {
    throw std::runtime_error(
        util::format("delta: base dataset is not a subsequence of the next epoch "
                     "({} of {} base rows matched)",
                     b, base_rows.size()));
  }
  REMGEN_COUNTER_ADD("store.delta.makes", 1);
  return delta;
}

Snapshot apply_delta(const Snapshot& base, const SnapshotDelta& delta) {
  REMGEN_SCOPE("store.apply_delta");
  if (base.model == nullptr || !base.model->kind().has_value() || !base.rem.has_value()) {
    throw std::runtime_error("delta: base has no zoo model or no REM to rebuild from");
  }
  if (base.model->name() != delta.model_name) {
    throw std::runtime_error(util::format("delta: base model is {}, delta expects {}",
                                          base.model->name(), delta.model_name));
  }
  if (base.dataset.size() != delta.base_rows) {
    throw std::runtime_error(util::format("delta: base has {} rows, delta expects {}",
                                          base.dataset.size(), delta.base_rows));
  }
  if (dataset_payload_crc(base) != delta.base_dataset_crc) {
    throw std::runtime_error("delta: base dataset CRC mismatch (wrong base snapshot)");
  }
  if (delta.base_rows + delta.added_rows.size() != delta.final_rows || delta.final_rows == 0) {
    throw std::runtime_error("delta: row counts are inconsistent");
  }

  Snapshot out;
  {
    std::vector<data::Sample> rows(delta.final_rows);
    std::vector<bool> filled(delta.final_rows, false);
    for (const DeltaRow& added : delta.added_rows) {
      if (added.position >= delta.final_rows || filled[added.position]) {
        throw std::runtime_error("delta: bad inserted-row position");
      }
      rows[added.position] = added.sample;
      filled[added.position] = true;
    }
    std::size_t b = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (filled[i]) continue;
      rows[i] = base.dataset.samples()[b++];
    }
    out.dataset = data::Dataset(std::move(rows));
  }

  // The producer's recipe, on the consumer: a fresh estimator of the base
  // model's zoo kind fitted on the merged rows, swept over the base grid.
  out.model = ml::make_model(*base.model->kind());
  out.rem.emplace(core::build_rem(out.dataset, *out.model, base.rem->geometry()));
  REMGEN_COUNTER_ADD("store.delta.applies", 1);
  return out;
}

void save_delta(std::ostream& out, const SnapshotDelta& delta) {
  REMGEN_SCOPE("store.save_delta");
  std::vector<Section> sections;
  const auto section = [&sections](DeltaSectionId id) -> util::BinaryWriter& {
    return sections.emplace_back(Section{static_cast<std::uint32_t>(id), {}}).payload;
  };
  util::BinaryWriter& meta = section(DeltaSectionId::Meta);  // Always present.
  meta.u64(delta.base_epoch);
  meta.u64(delta.epoch);
  meta.u64(delta.base_rows);
  meta.u32(delta.base_dataset_crc);
  meta.u64(delta.final_rows);
  meta.str(delta.model_name);
  if (!delta.added_rows.empty()) {
    util::BinaryWriter& rows = section(DeltaSectionId::DatasetRows);
    rows.u64(delta.added_rows.size());
    for (const DeltaRow& row : delta.added_rows) {
      rows.u64(row.position);
      write_sample_row(rows, row.sample);
    }
  }
  const std::size_t bytes = write_sections(out, kDeltaMagic, kDeltaVersion, sections, "delta");
  REMGEN_COUNTER_ADD("store.delta.saves", 1);
  REMGEN_COUNTER_ADD("store.delta.bytes_written", static_cast<std::int64_t>(bytes));
}

SnapshotDelta load_delta(std::istream& in) {
  REMGEN_SCOPE("store.load_delta");
  SnapshotDelta delta;
  const auto visit = [&delta](std::uint32_t id, util::BinaryReader& section) {
    switch (static_cast<DeltaSectionId>(id)) {
      case DeltaSectionId::Meta:
        delta.base_epoch = section.u64();
        delta.epoch = section.u64();
        delta.base_rows = section.u64();
        delta.base_dataset_crc = section.u32();
        delta.final_rows = section.u64();
        delta.model_name = section.str();
        break;
      case DeltaSectionId::DatasetRows:
        delta.added_rows.resize(section.count(8 + kSampleRowMinBytes));
        for (DeltaRow& row : delta.added_rows) {
          row.position = section.u64();
          row.sample = read_sample_row(section);
        }
        break;
      default: break;  // Unknown section from a newer writer: CRC-checked, skipped.
    }
  };
  read_sections(in, kDeltaMagic, kDeltaVersion, "delta", visit);
  REMGEN_COUNTER_ADD("store.delta.loads", 1);
  return delta;
}

void save_delta_file(const std::string& path, const SnapshotDelta& delta) {
  std::ostringstream out;
  save_delta(out, delta);
  util::write_file(path, std::move(out).str());
}

SnapshotDelta load_delta_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(util::format("delta: cannot open '{}' for read", path));
  return load_delta(in);
}

}  // namespace remgen::store
