#include "store/delta.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/binary_io.hpp"
#include "util/fmt.hpp"

namespace remgen::store {

namespace {

void write_section(util::BinaryWriter& out, DeltaSectionId id, const util::BinaryWriter& payload) {
  out.u32(static_cast<std::uint32_t>(id));
  out.u64(payload.size());
  out.u32(util::crc32(payload.buffer()));
  out.bytes(payload.buffer().data(), payload.size());
}

/// One row's REMSNAP1 encoding as a comparable byte string.
std::string row_bytes(const data::Sample& s) {
  util::BinaryWriter w;
  write_sample_row(w, s);
  return std::string(w.buffer().data(), w.size());
}

/// Bitwise cell equality: byte-identity of the serialised raster is the
/// contract, so comparisons must be on the f64 bit patterns, not ==.
bool cells_equal(std::span<const core::RemCell> a, std::span<const core::RemCell> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].rss_dbm) != std::bit_cast<std::uint64_t>(b[i].rss_dbm) ||
        std::bit_cast<std::uint64_t>(a[i].sigma_db) !=
            std::bit_cast<std::uint64_t>(b[i].sigma_db)) {
      return false;
    }
  }
  return true;
}

/// Bitwise grid equality between a REM and a patch's (unvalidated) grid.
bool grid_equal(const geom::GridGeometry& g, const geom::Aabb& bounds, std::uint64_t nx,
                std::uint64_t ny, std::uint64_t nz) {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return same(g.bounds().min.x, bounds.min.x) && same(g.bounds().min.y, bounds.min.y) &&
         same(g.bounds().min.z, bounds.min.z) && same(g.bounds().max.x, bounds.max.x) &&
         same(g.bounds().max.y, bounds.max.y) && same(g.bounds().max.z, bounds.max.z) &&
         g.nx() == nx && g.ny() == ny && g.nz() == nz;
}

/// Resolves each patch MAC to its cell run — the shipped layer, else the
/// base REM's — and checks the patch grid against them: it must equal the
/// base REM's grid, and every run must hold exactly nx·ny·nz cells. With no
/// base REM every MAC needs a shipped layer, so the grid is bounded by the
/// cells actually shipped. Runs before any grid or REM is constructed, so a
/// crafted patch can neither trip a precondition nor size an allocation.
std::vector<std::span<const core::RemCell>> patch_layers(const DeltaRemPatch& patch,
                                                         const Snapshot& base) {
  if (patch.macs.empty()) throw std::runtime_error("delta: REM patch has no MACs");
  if (base.rem.has_value() &&
      !grid_equal(base.rem->geometry(), patch.bounds, patch.nx, patch.ny, patch.nz)) {
    throw std::runtime_error("delta: REM patch grid differs from the base REM");
  }
  std::vector<std::span<const core::RemCell>> layers;
  layers.reserve(patch.macs.size());
  for (const radio::MacAddress& mac : patch.macs) {
    const auto shipped = std::find_if(patch.layers.begin(), patch.layers.end(),
                                      [&](const DeltaRemLayer& l) { return l.mac == mac; });
    if (shipped != patch.layers.end()) {
      layers.emplace_back(shipped->cells);
      continue;
    }
    if (!base.rem.has_value()) {
      throw std::runtime_error("delta: unchanged layer but base has no REM");
    }
    const auto& base_macs = base.rem->macs();
    if (std::find(base_macs.begin(), base_macs.end(), mac) == base_macs.end()) {
      throw std::runtime_error(
          util::format("delta: unchanged layer for mac {} missing from base", mac.to_string()));
    }
    layers.push_back(base.rem->layer(mac));
  }
  // nx·ny·nz == cells, checked by division so no product can overflow.
  const std::uint64_t cells = layers.front().size();
  const std::uint64_t nx = patch.nx;
  const std::uint64_t ny = patch.ny;
  if (nx == 0 || ny == 0 || nx > cells || ny > cells / nx || cells % (nx * ny) != 0 ||
      patch.nz != cells / (nx * ny)) {
    throw std::runtime_error("delta: REM patch grid does not match its layers");
  }
  for (const std::span<const core::RemCell> layer : layers) {
    if (layer.size() != cells) {
      throw std::runtime_error("delta: layer cell count does not match the grid");
    }
  }
  return layers;
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
  SnapshotDelta delta;
  delta.base_epoch = base_epoch;
  delta.epoch = epoch;
  delta.base_rows = base.dataset.size();
  delta.base_dataset_crc = dataset_payload_crc(base);
  delta.final_rows = next.dataset.size();

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

  if (next.model != nullptr) {
    util::BinaryWriter w;
    ml::save_model(w, *next.model);
    delta.model_bytes.assign(w.buffer().data(), w.size());
  }

  if (next.rem.has_value()) {
    const core::RadioEnvironmentMap& next_rem = *next.rem;
    const geom::GridGeometry& g = next_rem.geometry();
    if (base.rem.has_value() &&
        !grid_equal(base.rem->geometry(), g.bounds(), g.nx(), g.ny(), g.nz())) {
      throw std::runtime_error("delta: REM grid geometry changed between epochs");
    }
    DeltaRemPatch patch;
    patch.bounds = g.bounds();
    patch.nx = g.nx();
    patch.ny = g.ny();
    patch.nz = g.nz();
    patch.macs = next_rem.macs();
    for (const radio::MacAddress& mac : patch.macs) {
      const std::span<const core::RemCell> cells = next_rem.layer(mac);
      bool changed = true;
      if (base.rem.has_value()) {
        const auto& base_macs = base.rem->macs();
        const bool in_base =
            std::find(base_macs.begin(), base_macs.end(), mac) != base_macs.end();
        if (in_base) changed = !cells_equal(cells, base.rem->layer(mac));
      }
      if (changed) patch.layers.push_back(DeltaRemLayer{mac, {cells.begin(), cells.end()}});
    }
    delta.rem = std::move(patch);
  }
  REMGEN_COUNTER_ADD("store.delta.makes", 1);
  return delta;
}

Snapshot apply_delta(const Snapshot& base, const SnapshotDelta& delta) {
  REMGEN_SCOPE("store.apply_delta");
  if (base.dataset.size() != delta.base_rows) {
    throw std::runtime_error(util::format("delta: base has {} rows, delta expects {}",
                                          base.dataset.size(), delta.base_rows));
  }
  if (dataset_payload_crc(base) != delta.base_dataset_crc) {
    throw std::runtime_error("delta: base dataset CRC mismatch (wrong base snapshot)");
  }
  if (delta.base_rows + delta.added_rows.size() != delta.final_rows) {
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

  if (!delta.model_bytes.empty()) {
    util::BinaryReader r(delta.model_bytes);
    out.model = ml::load_model(r);
  }

  if (delta.rem.has_value()) {
    const DeltaRemPatch& patch = *delta.rem;
    const std::vector<std::span<const core::RemCell>> layers = patch_layers(patch, base);
    core::RadioEnvironmentMap rem(
        geom::GridGeometry(patch.bounds, patch.nx, patch.ny, patch.nz), patch.macs);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      std::copy(layers[i].begin(), layers[i].end(), rem.field(patch.macs[i]).values().begin());
    }
    out.rem.emplace(std::move(rem));
  }
  REMGEN_COUNTER_ADD("store.delta.applies", 1);
  return out;
}

void save_delta(std::ostream& out, const SnapshotDelta& delta) {
  REMGEN_SCOPE("store.save_delta");
  util::BinaryWriter w;
  w.bytes(kDeltaMagic.data(), kDeltaMagic.size());
  w.u32(kDeltaVersion);

  std::uint32_t sections = 1;  // Meta is always present.
  if (!delta.added_rows.empty()) ++sections;
  if (!delta.model_bytes.empty()) ++sections;
  if (delta.rem.has_value()) ++sections;
  w.u32(sections);

  {
    util::BinaryWriter payload;
    payload.u64(delta.base_epoch);
    payload.u64(delta.epoch);
    payload.u64(delta.base_rows);
    payload.u32(delta.base_dataset_crc);
    payload.u64(delta.final_rows);
    write_section(w, DeltaSectionId::Meta, payload);
  }
  if (!delta.added_rows.empty()) {
    util::BinaryWriter payload;
    payload.u64(delta.added_rows.size());
    for (const DeltaRow& row : delta.added_rows) {
      payload.u64(row.position);
      write_sample_row(payload, row.sample);
    }
    write_section(w, DeltaSectionId::DatasetRows, payload);
  }
  if (!delta.model_bytes.empty()) {
    util::BinaryWriter payload;
    payload.bytes(delta.model_bytes.data(), delta.model_bytes.size());
    write_section(w, DeltaSectionId::Model, payload);
  }
  if (delta.rem.has_value()) {
    const DeltaRemPatch& patch = *delta.rem;
    util::BinaryWriter payload;
    payload.f64(patch.bounds.min.x);
    payload.f64(patch.bounds.min.y);
    payload.f64(patch.bounds.min.z);
    payload.f64(patch.bounds.max.x);
    payload.f64(patch.bounds.max.y);
    payload.f64(patch.bounds.max.z);
    payload.u64(patch.nx);
    payload.u64(patch.ny);
    payload.u64(patch.nz);
    payload.u64(patch.macs.size());
    for (const radio::MacAddress& mac : patch.macs) ml::save_mac(payload, mac);
    payload.u64(patch.layers.size());
    for (const DeltaRemLayer& layer : patch.layers) {
      ml::save_mac(payload, layer.mac);
      payload.u64(layer.cells.size());
      for (const core::RemCell& cell : layer.cells) {
        payload.f64(cell.rss_dbm);
        payload.f64(cell.sigma_db);
      }
    }
    write_section(w, DeltaSectionId::RemPatch, payload);
  }

  out.write(w.buffer().data(), static_cast<std::streamsize>(w.size()));
  if (!out) throw std::runtime_error("delta: write failed");
  REMGEN_COUNTER_ADD("store.delta.saves", 1);
  REMGEN_COUNTER_ADD("store.delta.bytes_written", static_cast<std::int64_t>(w.size()));
}

SnapshotDelta load_delta(std::istream& in) {
  REMGEN_SCOPE("store.load_delta");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  util::BinaryReader r(bytes);

  if (r.remaining() < kDeltaMagic.size() || r.view(kDeltaMagic.size()) != kDeltaMagic) {
    throw std::runtime_error("delta: bad magic (not a REM delta)");
  }
  const std::uint32_t version = r.u32();
  if (version != kDeltaVersion) {
    throw std::runtime_error(
        util::format("delta: unsupported version {} (expected {})", version, kDeltaVersion));
  }

  SnapshotDelta delta;
  const std::uint32_t sections = r.u32();
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::uint32_t id = r.u32();
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    const std::string_view payload = r.view(size);
    if (util::crc32(payload) != crc) {
      throw std::runtime_error(util::format("delta: CRC mismatch in section {}", id));
    }
    util::BinaryReader section(payload);
    switch (static_cast<DeltaSectionId>(id)) {
      case DeltaSectionId::Meta:
        delta.base_epoch = section.u64();
        delta.epoch = section.u64();
        delta.base_rows = section.u64();
        delta.base_dataset_crc = section.u32();
        delta.final_rows = section.u64();
        break;
      case DeltaSectionId::DatasetRows: {
        delta.added_rows.resize(section.count(8 + kSampleRowMinBytes));
        for (DeltaRow& row : delta.added_rows) {
          row.position = section.u64();
          row.sample = read_sample_row(section);
        }
        break;
      }
      case DeltaSectionId::Model:
        delta.model_bytes.assign(payload.data(), payload.size());
        break;
      case DeltaSectionId::RemPatch: {
        DeltaRemPatch patch;
        patch.bounds.min.x = section.f64();
        patch.bounds.min.y = section.f64();
        patch.bounds.min.z = section.f64();
        patch.bounds.max.x = section.f64();
        patch.bounds.max.y = section.f64();
        patch.bounds.max.z = section.f64();
        patch.nx = section.u64();
        patch.ny = section.u64();
        patch.nz = section.u64();
        patch.macs.resize(section.count(ml::kMacBytes));
        for (radio::MacAddress& mac : patch.macs) mac = ml::load_mac(section);
        patch.layers.resize(section.count(ml::kMacBytes + 8));
        for (DeltaRemLayer& layer : patch.layers) {
          layer.mac = ml::load_mac(section);
          layer.cells.resize(section.count(16));
          for (core::RemCell& cell : layer.cells) {
            cell.rss_dbm = section.f64();
            cell.sigma_db = section.f64();
          }
        }
        delta.rem = std::move(patch);
        break;
      }
      default: break;  // Unknown section from a newer writer: CRC-checked, skipped.
    }
  }
  REMGEN_COUNTER_ADD("store.delta.loads", 1);
  return delta;
}

void save_delta_file(const std::string& path, const SnapshotDelta& delta) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error(util::format("delta: cannot open '{}' for write", path));
  save_delta(out, delta);
}

SnapshotDelta load_delta_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(util::format("delta: cannot open '{}' for read", path));
  return load_delta(in);
}

}  // namespace remgen::store
