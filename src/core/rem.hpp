// The Radio Environmental Map: the system's primary output.
//
// A REM is a per-transmitter raster of predicted signal quality (here: RSS in
// dBm, with optional prediction uncertainty) over a 3D voxel grid, built from
// the location-annotated samples the UAV fleet collected and a fitted
// regression model. It answers the queries the paper motivates: signal
// quality at unvisited locations, strongest-AP maps, and "dark" region
// detection for network planning.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/grid3.hpp"
#include "radio/mac_address.hpp"

namespace remgen::core {

/// One voxel's predicted signal for one transmitter.
struct RemCell {
  double rss_dbm = -120.0;
  double sigma_db = 0.0;  ///< Prediction uncertainty (0 when unavailable).
};

/// Per-MAC rasterised REM over a common grid.
class RadioEnvironmentMap {
 public:
  /// An empty map over the given grid for the given transmitters.
  RadioEnvironmentMap(geom::GridGeometry geometry, std::vector<radio::MacAddress> macs);

  [[nodiscard]] const geom::GridGeometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] const std::vector<radio::MacAddress>& macs() const noexcept { return macs_; }

  /// Writes one cell. `mac` must be one of macs().
  void set_cell(const radio::MacAddress& mac, const geom::VoxelIndex& voxel, RemCell cell);

  /// Mutable raster for one MAC — the builder's bulk-write path (one hash
  /// lookup per MAC instead of one per voxel). `mac` must be one of macs().
  [[nodiscard]] geom::VoxelField<RemCell>& field(const radio::MacAddress& mac);

  /// Reads one cell. `mac` must be one of macs().
  [[nodiscard]] RemCell cell(const radio::MacAddress& mac, const geom::VoxelIndex& voxel) const;

  /// Every cell of one MAC's raster in GridGeometry::flat (z-major) order —
  /// the snapshot and delta wire order. `mac` must be one of macs().
  [[nodiscard]] std::span<const RemCell> layer(const radio::MacAddress& mac) const;

  /// Predicted RSS for `mac` at a world point (containing-voxel lookup);
  /// nullopt if the MAC is not mapped.
  [[nodiscard]] std::optional<RemCell> query(const radio::MacAddress& mac,
                                             const geom::Vec3& point) const;

  /// The strongest transmitter and its predicted RSS at a world point.
  struct BestAp {
    radio::MacAddress mac;
    RemCell cell;
  };
  [[nodiscard]] std::optional<BestAp> best_ap(const geom::Vec3& point) const;

  /// The strongest predicted RSS over every transmitter at one voxel (the
  /// rule behind coverage_fraction, dark_voxels and volume queries).
  [[nodiscard]] double best_rss(const geom::VoxelIndex& voxel) const;

  /// Fraction of voxels whose best predicted RSS is at least `threshold_dbm`.
  [[nodiscard]] double coverage_fraction(double threshold_dbm) const;

  /// Voxel indices whose best predicted RSS is below `threshold_dbm` —
  /// the "dark" connectivity regions of the environment.
  [[nodiscard]] std::vector<geom::VoxelIndex> dark_voxels(double threshold_dbm) const;

  /// Writes the full raster as CSV (mac,ix,iy,iz,x,y,z,rss_dbm,sigma_db).
  void write_csv(std::ostream& out) const;

 private:
  [[nodiscard]] const geom::VoxelField<RemCell>& field_of(const radio::MacAddress& mac) const;

  geom::GridGeometry geometry_;
  std::vector<radio::MacAddress> macs_;
  std::unordered_map<radio::MacAddress, geom::VoxelField<RemCell>> fields_;
};

}  // namespace remgen::core
