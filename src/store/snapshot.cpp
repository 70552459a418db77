#include "store/snapshot.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
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

void save_mac(util::BinaryWriter& w, const radio::MacAddress& mac) {
  w.bytes(mac.octets().data(), kMacBytes);
}

radio::MacAddress load_mac(util::BinaryReader& r) {
  std::array<std::uint8_t, kMacBytes> octets{};
  r.bytes(octets.data(), octets.size());
  return radio::MacAddress(octets);
}

void write_sample_row(util::BinaryWriter& w, const data::Sample& s) {
  w.f64(s.position.x);
  w.f64(s.position.y);
  w.f64(s.position.z);
  w.str(s.ssid);
  w.f64(s.rss_dbm);
  save_mac(w, s.mac);
  w.i64(s.channel);
  w.f64(s.timestamp_s);
  w.i64(s.uav_id);
  w.i64(s.waypoint_index);
}

namespace {

// The CSV/JSONL row rule (data/sample_io.cpp): a non-finite coordinate, RSS
// or timestamp is garbage, and an integer field must fit an int.
double finite_field(util::BinaryReader& r, const char* field) {
  const double value = r.f64();
  if (!std::isfinite(value)) {
    throw std::runtime_error(util::format("sample row: non-finite {}", field));
  }
  return value;
}

int int_field(util::BinaryReader& r, const char* field) {
  const std::int64_t value = r.i64();
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    throw std::runtime_error(util::format("sample row: {} {} out of int range", field, value));
  }
  return static_cast<int>(value);
}

}  // namespace

data::Sample read_sample_row(util::BinaryReader& r) {
  data::Sample s;
  s.position.x = finite_field(r, "x");
  s.position.y = finite_field(r, "y");
  s.position.z = finite_field(r, "z");
  s.ssid = r.str();
  s.rss_dbm = finite_field(r, "rss_dbm");
  s.mac = load_mac(r);
  s.channel = int_field(r, "channel");
  s.timestamp_s = finite_field(r, "timestamp_s");
  s.uav_id = int_field(r, "uav_id");
  s.waypoint_index = int_field(r, "waypoint_index");
  return s;
}

void write_dataset_payload(util::BinaryWriter& w, const data::Dataset& dataset) {
  w.u64(dataset.size());
  for (const data::Sample& s : dataset.samples()) write_sample_row(w, s);
}

namespace {

data::Dataset read_dataset(util::BinaryReader& r) {
  std::vector<data::Sample> samples(r.count(kSampleRowMinBytes));
  for (data::Sample& s : samples) s = read_sample_row(r);
  return data::Dataset(std::move(samples));
}

void write_rem(util::BinaryWriter& w, const core::RadioEnvironmentMap& rem) {
  const geom::GridGeometry& g = rem.geometry();
  w.f64(g.bounds().min.x);
  w.f64(g.bounds().min.y);
  w.f64(g.bounds().min.z);
  w.f64(g.bounds().max.x);
  w.f64(g.bounds().max.y);
  w.f64(g.bounds().max.z);
  w.u64(g.nx());
  w.u64(g.ny());
  w.u64(g.nz());
  w.u64(rem.macs().size());
  for (const radio::MacAddress& mac : rem.macs()) save_mac(w, mac);
  for (const radio::MacAddress& mac : rem.macs()) {
    for (const core::RemCell& cell : rem.layer(mac)) {
      w.f64(cell.rss_dbm);
      w.f64(cell.sigma_db);
    }
  }
}

core::RadioEnvironmentMap read_rem(util::BinaryReader& r) {
  geom::Aabb bounds;
  bounds.min.x = r.f64();
  bounds.min.y = r.f64();
  bounds.min.z = r.f64();
  bounds.max.x = r.f64();
  bounds.max.y = r.f64();
  bounds.max.z = r.f64();
  // Each MAC carries nx·ny·nz cells of two f64s. Every axis is bounded by
  // the cells it implies before anything is allocated, so the product
  // cannot overflow.
  constexpr std::size_t kCellBytes = 16;
  const std::size_t nx = r.count(kCellBytes);
  const std::size_t ny = r.count(nx * kCellBytes);
  const std::size_t nz = r.count(nx * ny * kCellBytes);
  if (nx == 0 || ny == 0 || nz == 0) throw std::runtime_error("snapshot: empty REM grid axis");
  std::vector<radio::MacAddress> macs(r.count(kMacBytes + nx * ny * nz * kCellBytes));
  for (radio::MacAddress& mac : macs) mac = load_mac(r);
  core::RadioEnvironmentMap rem(geom::GridGeometry(bounds, nx, ny, nz), macs);
  for (const radio::MacAddress& mac : macs) {
    for (core::RemCell& cell : rem.field(mac).values()) {
      cell.rss_dbm = r.f64();
      cell.sigma_db = r.f64();
    }
  }
  return rem;
}

}  // namespace

void save_snapshot(std::ostream& out, const Snapshot& snapshot) {
  REMGEN_SCOPE("store.save");
  std::vector<Section> sections;
  const auto section = [&sections](SectionId id) -> util::BinaryWriter& {
    return sections.emplace_back(Section{static_cast<std::uint32_t>(id), {}}).payload;
  };
  write_dataset_payload(section(SectionId::Dataset), snapshot.dataset);
  if (snapshot.rem.has_value()) write_rem(section(SectionId::Rem), *snapshot.rem);
  if (snapshot.model != nullptr) {
    const std::optional<ml::ModelKind> kind = snapshot.model->kind();
    if (!kind.has_value()) {
      throw std::runtime_error(util::format("snapshot: model '{}' is not a zoo kind",
                                            snapshot.model->name()));
    }
    section(SectionId::Model).str(ml::model_kind_name(*kind));
  }
  const std::size_t bytes =
      write_sections(out, kSnapshotMagic, kSnapshotVersion, sections, "snapshot");
  REMGEN_COUNTER_ADD("store.snapshot.saves", 1);
  REMGEN_COUNTER_ADD("store.snapshot.bytes_written", static_cast<std::int64_t>(bytes));
}

Snapshot load_snapshot(std::istream& in) {
  REMGEN_SCOPE("store.load");
  Snapshot snapshot;
  std::optional<ml::ModelKind> kind;
  const auto visit = [&](std::uint32_t id, util::BinaryReader& section) {
    switch (static_cast<SectionId>(id)) {
      case SectionId::Dataset: snapshot.dataset = read_dataset(section); break;
      case SectionId::Rem: snapshot.rem.emplace(read_rem(section)); break;
      case SectionId::Model: {
        const std::string name = section.str();
        kind = ml::model_kind_from_name(name);
        if (!kind.has_value()) {
          throw std::runtime_error(util::format("snapshot: unknown model '{}'", name));
        }
        break;
      }
      default: break;  // Unknown section from a newer writer: CRC-checked, skipped.
    }
  };
  read_sections(in, kSnapshotMagic, kSnapshotVersion, "snapshot", visit);
  // The model is its kind fitted on the rows; no fitted state is decoded,
  // so nothing in the file reaches a hyperparameter.
  if (kind.has_value()) {
    if (snapshot.dataset.empty()) {
      throw std::runtime_error("snapshot: model section without dataset rows to fit on");
    }
    snapshot.model = ml::make_model(*kind);
    REMGEN_SCOPE("ml.fit");
    snapshot.model->fit(snapshot.dataset.samples());
  }
  REMGEN_COUNTER_ADD("store.snapshot.loads", 1);
  return snapshot;
}

void save_snapshot_file(const std::string& path, const Snapshot& snapshot) {
  std::ostringstream out;
  save_snapshot(out, snapshot);
  util::write_file(path, std::move(out).str());
}

std::optional<Snapshot> build_snapshot(const data::Dataset& raw, ml::ModelKind kind,
                                       const geom::Aabb& volume,
                                       const core::RemBuilderConfig& config) {
  data::Dataset prepared = raw.filter_min_samples_per_mac(config.min_samples_per_mac);
  if (prepared.empty()) return std::nullopt;
  // build_rem gates again; on already-gated rows that keeps every row in
  // order, so the fit input matches build_rem(raw).
  Snapshot snapshot;
  snapshot.model = ml::make_model(kind);
  snapshot.rem.emplace(core::build_rem(prepared, *snapshot.model, volume, config));
  snapshot.dataset = std::move(prepared);
  return snapshot;
}

Snapshot load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(util::format("snapshot: cannot open '{}' for read", path));
  return load_snapshot(in);
}

}  // namespace remgen::store
