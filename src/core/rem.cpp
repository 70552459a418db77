#include "core/rem.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "obs/scope.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace remgen::core {

RadioEnvironmentMap::RadioEnvironmentMap(geom::GridGeometry geometry,
                                         std::vector<radio::MacAddress> macs)
    : geometry_(std::move(geometry)), macs_(std::move(macs)) {
  REMGEN_EXPECTS(!macs_.empty());
  for (const radio::MacAddress& mac : macs_) {
    fields_.emplace(mac, geom::VoxelField<RemCell>(geometry_));
  }
}

const geom::VoxelField<RemCell>& RadioEnvironmentMap::field_of(
    const radio::MacAddress& mac) const {
  const auto it = fields_.find(mac);
  REMGEN_EXPECTS(it != fields_.end());
  return it->second;
}

void RadioEnvironmentMap::set_cell(const radio::MacAddress& mac, const geom::VoxelIndex& voxel,
                                   RemCell cell) {
  const auto it = fields_.find(mac);
  REMGEN_EXPECTS(it != fields_.end());
  it->second.at(voxel) = cell;
}

geom::VoxelField<RemCell>& RadioEnvironmentMap::field(const radio::MacAddress& mac) {
  const auto it = fields_.find(mac);
  REMGEN_EXPECTS(it != fields_.end());
  return it->second;
}

RemCell RadioEnvironmentMap::cell(const radio::MacAddress& mac,
                                  const geom::VoxelIndex& voxel) const {
  return field_of(mac).at(voxel);
}

std::span<const RemCell> RadioEnvironmentMap::layer(const radio::MacAddress& mac) const {
  return field_of(mac).values();
}

std::optional<RemCell> RadioEnvironmentMap::query(const radio::MacAddress& mac,
                                                  const geom::Vec3& point) const {
  const auto it = fields_.find(mac);
  if (it == fields_.end()) return std::nullopt;
  return it->second.at_point(point);
}

std::optional<RadioEnvironmentMap::BestAp> RadioEnvironmentMap::best_ap(
    const geom::Vec3& point) const {
  std::optional<BestAp> best;
  for (const radio::MacAddress& mac : macs_) {
    const RemCell c = fields_.at(mac).at_point(point);
    if (!best || c.rss_dbm > best->cell.rss_dbm) best = BestAp{mac, c};
  }
  return best;
}

double RadioEnvironmentMap::best_rss(const geom::VoxelIndex& voxel) const {
  double best = -std::numeric_limits<double>::infinity();
  for (const radio::MacAddress& mac : macs_) {
    best = std::max(best, fields_.at(mac).at(voxel).rss_dbm);
  }
  return best;
}

double RadioEnvironmentMap::coverage_fraction(double threshold_dbm) const {
  REMGEN_SCOPE("core.coverage");
  const std::size_t total = geometry_.voxel_count();
  const std::size_t dark = dark_voxels(threshold_dbm).size();
  return total == 0 ? 0.0 : static_cast<double>(total - dark) / static_cast<double>(total);
}

std::vector<geom::VoxelIndex> RadioEnvironmentMap::dark_voxels(double threshold_dbm) const {
  std::vector<geom::VoxelIndex> out;
  for (std::size_t iz = 0; iz < geometry_.nz(); ++iz) {
    for (std::size_t iy = 0; iy < geometry_.ny(); ++iy) {
      for (std::size_t ix = 0; ix < geometry_.nx(); ++ix) {
        const geom::VoxelIndex v{ix, iy, iz};
        if (!(best_rss(v) >= threshold_dbm)) out.push_back(v);  // Not covered.
      }
    }
  }
  return out;
}

void RadioEnvironmentMap::write_csv(std::ostream& out) const {
  REMGEN_SCOPE("core.write_csv");
  util::CsvWriter writer(out);
  writer.write_row({"mac", "ix", "iy", "iz", "x", "y", "z", "rss_dbm", "sigma_db"});
  for (const radio::MacAddress& mac : macs_) {
    const auto& field = fields_.at(mac);
    for (std::size_t iz = 0; iz < geometry_.nz(); ++iz) {
      for (std::size_t iy = 0; iy < geometry_.ny(); ++iy) {
        for (std::size_t ix = 0; ix < geometry_.nx(); ++ix) {
          const geom::VoxelIndex v{ix, iy, iz};
          const geom::Vec3 c = geometry_.voxel_center(v);
          const RemCell cell = field.at(v);
          writer.write_row({mac.to_string(), util::format("{}", ix), util::format("{}", iy),
                            util::format("{}", iz), util::format("{:.3f}", c.x),
                            util::format("{:.3f}", c.y), util::format("{:.3f}", c.z),
                            util::format("{:.2f}", cell.rss_dbm),
                            util::format("{:.2f}", cell.sigma_db)});
        }
      }
    }
  }
}

}  // namespace remgen::core
