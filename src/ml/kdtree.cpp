#include "ml/kdtree.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace remgen::ml {

namespace {
double axis_value(const geom::Vec3& p, int axis) {
  switch (axis) {
    case 0: return p.x;
    case 1: return p.y;
    default: return p.z;
  }
}
}  // namespace

KdTree::KdTree(std::span<const geom::Vec3> points)
    : points_(points.begin(), points.end()) {
  if (points_.empty()) return;
  std::vector<std::size_t> indices(points_.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  nodes_.reserve(points_.size());
  root_ = build(indices, 0, indices.size(), 0);
}

int KdTree::build(std::vector<std::size_t>& indices, std::size_t begin, std::size_t end,
                  int depth) {
  if (begin >= end) return -1;
  const int axis = depth % 3;
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                   indices.begin() + static_cast<std::ptrdiff_t>(mid),
                   indices.begin() + static_cast<std::ptrdiff_t>(end),
                   [&](std::size_t a, std::size_t b) {
                     return axis_value(points_[a], axis) < axis_value(points_[b], axis);
                   });
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back({indices[mid], axis, -1, -1});
  const int left = build(indices, begin, mid, depth + 1);
  const int right = build(indices, mid + 1, end, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

void KdTree::search_knn(int node, const geom::Vec3& query, std::size_t k,
                        std::vector<KdHit>& heap) const {
  if (node < 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  const geom::Vec3& p = points_[n.point];
  const double d = p.distance_to(query);

  auto worse = [](const KdHit& a, const KdHit& b) { return a.distance < b.distance; };
  if (heap.size() < k) {
    heap.push_back({n.point, d});
    std::push_heap(heap.begin(), heap.end(), worse);
  } else if (d < heap.front().distance) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    heap.back() = {n.point, d};
    std::push_heap(heap.begin(), heap.end(), worse);
  }

  const double diff = axis_value(query, n.axis) - axis_value(p, n.axis);
  const int near = diff <= 0.0 ? n.left : n.right;
  const int far = diff <= 0.0 ? n.right : n.left;
  search_knn(near, query, k, heap);
  if (heap.size() < k || std::abs(diff) < heap.front().distance) {
    search_knn(far, query, k, heap);
  }
}

std::size_t KdTree::nearest(const geom::Vec3& query, std::size_t k,
                            std::vector<KdHit>& scratch) const {
  REMGEN_EXPECTS(k > 0);
  scratch.clear();
  scratch.reserve(k + 1);
  search_knn(root_, query, k, scratch);
  std::sort(scratch.begin(), scratch.end(),
            [](const KdHit& a, const KdHit& b) { return a.distance < b.distance; });
  return scratch.size();
}

std::vector<KdHit> KdTree::nearest(const geom::Vec3& query, std::size_t k) const {
  std::vector<KdHit> heap;
  nearest(query, k, heap);
  return heap;
}

std::size_t KdTree::nearest(const geom::Vec3& query, std::size_t k,
                            KdQueryScratch& scratch) const {
  REMGEN_EXPECTS(k > 0);
  auto& heap = scratch.heap;
  auto& stack = scratch.stack;
  heap.clear();
  stack.clear();
  heap.reserve(k + 1);

  // Iterative twin of search_knn(). The near child is followed immediately;
  // the far child is deferred on the stack with its splitting-plane distance.
  // Popping LIFO reproduces the recursion's unwind order exactly, and the
  // prune bound is re-checked at pop time — the same moment the recursion
  // checks it (after the near subtree completes) — so heap contents, tie
  // handling, and therefore results are bit-identical to the recursive path.
  auto worse = [](const KdHit& a, const KdHit& b) { return a.distance < b.distance; };
  int node = root_;
  while (true) {
    while (node >= 0) {
      const Node& n = nodes_[static_cast<std::size_t>(node)];
      const geom::Vec3& p = points_[n.point];
      const double d = p.distance_to(query);
      if (heap.size() < k) {
        heap.push_back({n.point, d});
        std::push_heap(heap.begin(), heap.end(), worse);
      } else if (d < heap.front().distance) {
        std::pop_heap(heap.begin(), heap.end(), worse);
        heap.back() = {n.point, d};
        std::push_heap(heap.begin(), heap.end(), worse);
      }
      const double diff = axis_value(query, n.axis) - axis_value(p, n.axis);
      const int near = diff <= 0.0 ? n.left : n.right;
      const int far = diff <= 0.0 ? n.right : n.left;
      if (far >= 0) stack.push_back({far, std::abs(diff)});
      node = near;
    }
    node = -1;
    while (!stack.empty()) {
      const KdQueryScratch::Pending pending = stack.back();
      stack.pop_back();
      if (heap.size() < k || pending.plane_distance < heap.front().distance) {
        node = pending.node;
        break;
      }
    }
    if (node < 0) break;
  }
  std::sort(heap.begin(), heap.end(), worse);
  return heap.size();
}

void KdTree::search_radius(int node, const geom::Vec3& query, double radius,
                           std::vector<KdHit>& hits) const {
  if (node < 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  const geom::Vec3& p = points_[n.point];
  const double d = p.distance_to(query);
  if (d <= radius) hits.push_back({n.point, d});

  const double diff = axis_value(query, n.axis) - axis_value(p, n.axis);
  const int near = diff <= 0.0 ? n.left : n.right;
  const int far = diff <= 0.0 ? n.right : n.left;
  search_radius(near, query, radius, hits);
  if (std::abs(diff) <= radius) search_radius(far, query, radius, hits);
}

std::vector<KdHit> KdTree::within(const geom::Vec3& query, double radius) const {
  REMGEN_EXPECTS(radius >= 0.0);
  std::vector<KdHit> hits;
  search_radius(root_, query, radius, hits);
  std::sort(hits.begin(), hits.end(),
            [](const KdHit& a, const KdHit& b) { return a.distance < b.distance; });
  return hits;
}

}  // namespace remgen::ml
