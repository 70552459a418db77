#include "store/snapshot.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/binary_io.hpp"
#include "util/fmt.hpp"

namespace remgen::store {

void write_sample_row(util::BinaryWriter& w, const data::Sample& s) {
  w.f64(s.position.x);
  w.f64(s.position.y);
  w.f64(s.position.z);
  w.str(s.ssid);
  w.f64(s.rss_dbm);
  ml::save_mac(w, s.mac);
  w.i64(s.channel);
  w.f64(s.timestamp_s);
  w.i64(s.uav_id);
  w.i64(s.waypoint_index);
}

data::Sample read_sample_row(util::BinaryReader& r) {
  data::Sample s;
  s.position.x = r.f64();
  s.position.y = r.f64();
  s.position.z = r.f64();
  s.ssid = r.str();
  s.rss_dbm = r.f64();
  s.mac = ml::load_mac(r);
  s.channel = static_cast<int>(r.i64());
  s.timestamp_s = r.f64();
  s.uav_id = static_cast<int>(r.i64());
  s.waypoint_index = static_cast<int>(r.i64());
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
  for (const radio::MacAddress& mac : rem.macs()) ml::save_mac(w, mac);
  for (const radio::MacAddress& mac : rem.macs()) {
    for (std::size_t iz = 0; iz < g.nz(); ++iz) {
      for (std::size_t iy = 0; iy < g.ny(); ++iy) {
        for (std::size_t ix = 0; ix < g.nx(); ++ix) {
          const core::RemCell cell = rem.cell(mac, {ix, iy, iz});
          w.f64(cell.rss_dbm);
          w.f64(cell.sigma_db);
        }
      }
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
  std::vector<radio::MacAddress> macs(r.count(ml::kMacBytes + nx * ny * nz * kCellBytes));
  for (radio::MacAddress& mac : macs) mac = ml::load_mac(r);
  core::RadioEnvironmentMap rem(geom::GridGeometry(bounds, nx, ny, nz), macs);
  for (const radio::MacAddress& mac : macs) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          core::RemCell cell;
          cell.rss_dbm = r.f64();
          cell.sigma_db = r.f64();
          rem.set_cell(mac, {ix, iy, iz}, cell);
        }
      }
    }
  }
  return rem;
}

void write_section(util::BinaryWriter& out, SectionId id, const util::BinaryWriter& payload) {
  out.u32(static_cast<std::uint32_t>(id));
  out.u64(payload.size());
  out.u32(util::crc32(payload.buffer()));
  out.bytes(payload.buffer().data(), payload.size());
}

}  // namespace

void save_snapshot(std::ostream& out, const Snapshot& snapshot) {
  REMGEN_SCOPE("store.save");
  util::BinaryWriter w;
  w.bytes(kSnapshotMagic.data(), kSnapshotMagic.size());
  w.u32(kSnapshotVersion);

  std::uint32_t sections = 1;
  if (snapshot.rem.has_value()) ++sections;
  if (snapshot.model != nullptr) ++sections;
  w.u32(sections);

  {
    util::BinaryWriter payload;
    write_dataset_payload(payload, snapshot.dataset);
    write_section(w, SectionId::Dataset, payload);
  }
  if (snapshot.rem.has_value()) {
    util::BinaryWriter payload;
    write_rem(payload, *snapshot.rem);
    write_section(w, SectionId::Rem, payload);
  }
  if (snapshot.model != nullptr) {
    util::BinaryWriter payload;
    ml::save_model(payload, *snapshot.model);
    write_section(w, SectionId::Model, payload);
  }

  out.write(w.buffer().data(), static_cast<std::streamsize>(w.size()));
  if (!out) throw std::runtime_error("snapshot: write failed");
  REMGEN_COUNTER_ADD("store.snapshot.saves", 1);
  REMGEN_COUNTER_ADD("store.snapshot.bytes_written", static_cast<std::int64_t>(w.size()));
}

Snapshot load_snapshot(std::istream& in) {
  REMGEN_SCOPE("store.load");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  util::BinaryReader r(bytes);

  if (r.remaining() < kSnapshotMagic.size() ||
      r.view(kSnapshotMagic.size()) != kSnapshotMagic) {
    throw std::runtime_error("snapshot: bad magic (not a REM snapshot)");
  }
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw std::runtime_error(
        util::format("snapshot: unsupported version {} (expected {})", version, kSnapshotVersion));
  }

  Snapshot snapshot;
  const std::uint32_t sections = r.u32();
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::uint32_t id = r.u32();
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    const std::string_view payload = r.view(size);
    if (util::crc32(payload) != crc) {
      throw std::runtime_error(util::format("snapshot: CRC mismatch in section {}", id));
    }
    util::BinaryReader section(payload);
    switch (static_cast<SectionId>(id)) {
      case SectionId::Dataset: snapshot.dataset = read_dataset(section); break;
      case SectionId::Rem: snapshot.rem.emplace(read_rem(section)); break;
      case SectionId::Model: snapshot.model = ml::load_model(section); break;
      default: break;  // Unknown section from a newer writer: CRC-checked, skipped.
    }
  }
  REMGEN_COUNTER_ADD("store.snapshot.loads", 1);
  return snapshot;
}

void save_snapshot_file(const std::string& path, const Snapshot& snapshot) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error(util::format("snapshot: cannot open '{}' for write", path));
  save_snapshot(out, snapshot);
}

Snapshot load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(util::format("snapshot: cannot open '{}' for read", path));
  return load_snapshot(in);
}

}  // namespace remgen::store
