#include "core/rem_builder.hpp"

#include <algorithm>
#include <unordered_map>

#include "exec/parallel.hpp"
#include "ml/kriging.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"

namespace remgen::core {

RadioEnvironmentMap build_rem(const data::Dataset& dataset, ml::Estimator& estimator,
                              const geom::Aabb& volume, const RemBuilderConfig& config) {
  REMGEN_EXPECTS(!dataset.empty());
  obs::Scope build_scope("core.build_rem");
  const data::Dataset prepared =
      dataset.filter_min_samples_per_mac(config.min_samples_per_mac);
  REMGEN_EXPECTS(!prepared.empty());

  {
    REMGEN_SCOPE("ml.fit");
    estimator.fit(prepared.samples());
  }

  // Representative channel per MAC (most frequent) so estimators with channel
  // features can be queried sensibly. Single hashed pass over the samples;
  // ties break toward the lowest channel, as the ordered-map scan used to.
  std::unordered_map<radio::MacAddress, std::unordered_map<int, std::size_t>> channel_counts;
  channel_counts.reserve(64);
  for (const data::Sample& s : prepared.samples()) ++channel_counts[s.mac][s.channel];
  std::unordered_map<radio::MacAddress, int> channel_of;
  channel_of.reserve(channel_counts.size());
  std::vector<radio::MacAddress> macs;
  macs.reserve(channel_counts.size());
  for (const auto& [mac, counts] : channel_counts) {
    int best_channel = 1;
    std::size_t best_count = 0;
    for (const auto& [channel, count] : counts) {
      if (count > best_count || (count == best_count && channel < best_channel)) {
        best_count = count;
        best_channel = channel;
      }
    }
    channel_of[mac] = best_channel;
    macs.push_back(mac);
  }
  std::sort(macs.begin(), macs.end());

  const auto* kriging = dynamic_cast<const ml::KrigingRegressor*>(&estimator);

  RadioEnvironmentMap rem(geom::GridGeometry::with_resolution(volume, config.voxel_m), macs);
  const geom::GridGeometry& g = rem.geometry();

  // One task per (mac, z-slab), issuing one predict_batch per y-row of nx
  // queries. Estimator::predict_batch is const and every task writes a
  // disjoint set of cells, so tasks are independent; the cell values do not
  // depend on evaluation order, so any schedule produces the same REM. The
  // chunk size is cost-derived instead of the old blanket chunk = 1: a z-slab
  // costs roughly nx*ny predicts, each on the order of a few microseconds.
  const std::size_t nz = g.nz();
  const std::size_t nx = g.nx();
  const std::size_t ny = g.ny();
  {
    REMGEN_SCOPE("core.sweep");
    const double est_slab_us = static_cast<double>(nx * ny) * 4.0;
    exec::parallel_for(
        macs.size() * nz,
        [&](std::size_t t) {
          const radio::MacAddress& mac = macs[t / nz];
          const std::size_t iz = t % nz;
          // One REM field lookup per slab (not one hash probe per voxel); a
          // y-row of cells is contiguous in the field's row-major storage.
          geom::VoxelField<RemCell>& field = rem.field(mac);
          // Per-thread batch buffers, reused across rows, slabs, and MACs.
          thread_local std::vector<data::Sample> queries;
          thread_local std::vector<double> values;
          thread_local std::vector<ml::KrigingRegressor::Prediction> predictions;
          if (queries.size() != nx) queries.resize(nx);
          const int channel = channel_of.at(mac);
          for (data::Sample& q : queries) {
            q.mac = mac;
            q.channel = channel;
          }
          for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
              queries[ix].position = g.voxel_center({ix, iy, iz});
            }
            RemCell* row = field.values().data() + g.flat({0, iy, iz});
            if (kriging != nullptr) {
              predictions.resize(nx);
              kriging->predict_with_sigma_batch(queries, predictions);
              for (std::size_t ix = 0; ix < nx; ++ix) {
                row[ix] = RemCell{predictions[ix].value, predictions[ix].sigma};
              }
            } else {
              values.resize(nx);
              estimator.predict_batch(queries, values);
              for (std::size_t ix = 0; ix < nx; ++ix) {
                row[ix] = RemCell{values[ix], 0.0};
              }
            }
          }
        },
        exec::chunk_for_cost(macs.size() * nz, est_slab_us), "core.sweep");
  }

  REMGEN_COUNTER_ADD("rem.builds", 1);
  REMGEN_COUNTER_ADD("rem.voxels_predicted", macs.size() * g.nx() * g.ny() * g.nz());
  build_scope.arg("macs", macs.size());
  build_scope.arg("voxels", g.nx() * g.ny() * g.nz());
  return rem;
}

RadioEnvironmentMap build_rem(const data::Dataset& dataset, ml::ModelKind kind,
                              const geom::Aabb& volume, const RemBuilderConfig& config) {
  const std::unique_ptr<ml::Estimator> estimator = ml::make_model(kind);
  return build_rem(dataset, *estimator, volume, config);
}

}  // namespace remgen::core
