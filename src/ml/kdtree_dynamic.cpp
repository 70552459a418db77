#include "ml/kdtree_dynamic.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "util/contracts.hpp"

namespace remgen::ml {

DynamicKdTree::DynamicKdTree(std::size_t rebuild_interval)
    : rebuild_interval_(rebuild_interval) {
  REMGEN_EXPECTS(rebuild_interval >= 1);
  auto initial = std::make_shared<State>();
  initial->pending = std::make_shared<const std::vector<geom::Vec3>>();
  state_.store(std::move(initial), std::memory_order_release);
}

void DynamicKdTree::publish(std::shared_ptr<const State> next) {
  // The only mutation readers can observe: one release store of a fully
  // constructed, immutable generation. A concurrent nearest() holds its own
  // shared_ptr, so the previous generation stays alive until the last query
  // drops it.
  state_.store(std::move(next), std::memory_order_release);
}

void DynamicKdTree::insert(const geom::Vec3& point) {
  insert_batch({&point, 1});
}

void DynamicKdTree::insert_batch(std::span<const geom::Vec3> points) {
  if (points.empty()) return;
  all_points_.insert(all_points_.end(), points.begin(), points.end());
  const std::shared_ptr<const State> current = state();
  const std::size_t pending_count = all_points_.size() - current->covered;
  if (pending_count >= rebuild_interval_) {
    rebuild();
    return;
  }
  // Republish the pending tail as a fresh immutable vector. Bounded by
  // rebuild_interval, so each insert copies O(interval) at worst and the
  // amortised cost per point stays constant.
  auto next = std::make_shared<State>();
  next->tree = current->tree;
  next->covered = current->covered;
  next->pending = std::make_shared<const std::vector<geom::Vec3>>(
      all_points_.begin() + static_cast<std::ptrdiff_t>(current->covered), all_points_.end());
  publish(std::move(next));
}

void DynamicKdTree::rebuild() {
  const std::shared_ptr<const State> current = state();
  if (current->tree != nullptr && current->covered == all_points_.size() &&
      current->pending->empty()) {
    return;  // Nothing new since the last build.
  }
  REMGEN_SCOPE("ml.kdtree_dynamic.rebuild");
  // Build completely off to the side; readers keep querying the old
  // generation. Insertion order indexing makes tree hit indices global
  // stream positions with no remap table.
  auto tree = std::make_shared<const KdTree>(std::span<const geom::Vec3>(all_points_));
  // The swap precondition the staleness tests lean on: a published tree
  // always covers exactly the points its generation claims.
  REMGEN_EXPECTS(tree->size() == all_points_.size());
  auto next = std::make_shared<State>();
  next->tree = std::move(tree);
  next->covered = all_points_.size();
  next->pending = std::make_shared<const std::vector<geom::Vec3>>();
  publish(std::move(next));
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  REMGEN_COUNTER_ADD("ml.kdtree_dynamic.rebuilds", 1);
}

std::size_t DynamicKdTree::size() const {
  const std::shared_ptr<const State> s = state();
  return s->covered + s->pending->size();
}

std::size_t DynamicKdTree::tree_size() const { return state()->covered; }

std::size_t DynamicKdTree::pending() const { return state()->pending->size(); }

void DynamicKdTree::merge_pending(const State& s, const geom::Vec3& query, std::size_t k,
                                  std::vector<KdHit>& hits) {
  const std::vector<geom::Vec3>& pending = *s.pending;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    hits.push_back({s.covered + i, pending[i].distance_to(query)});
  }
  // Deterministic total order: ties broken by insertion index, so the merged
  // result depends only on the point stream, never on rebuild timing.
  std::sort(hits.begin(), hits.end(), [](const KdHit& a, const KdHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;
  });
  if (hits.size() > k) hits.resize(k);
}

std::vector<KdHit> DynamicKdTree::nearest(const geom::Vec3& query, std::size_t k) const {
  const std::shared_ptr<const State> s = state();
  std::vector<KdHit> hits;
  if (s->tree != nullptr) hits = s->tree->nearest(query, k);
  if (s->pending->empty()) return hits;  // Tree results verbatim (bit-identical).
  merge_pending(*s, query, k, hits);
  return hits;
}

std::size_t DynamicKdTree::nearest(const geom::Vec3& query, std::size_t k,
                                   KdQueryScratch& scratch) const {
  const std::shared_ptr<const State> s = state();
  std::size_t count = 0;
  if (s->tree != nullptr) {
    count = s->tree->nearest(query, k, scratch);
  } else {
    scratch.heap.clear();
  }
  if (s->pending->empty()) return count;
  scratch.heap.resize(count);  // Drop any stale capacity past the hit count.
  merge_pending(*s, query, k, scratch.heap);
  return scratch.heap.size();
}

}  // namespace remgen::ml
