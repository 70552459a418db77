#include <gtest/gtest.h>

#include <algorithm>

#include "ml/kdtree.hpp"
#include "util/rng.hpp"

namespace remgen::ml {
namespace {

std::vector<geom::Vec3> random_points(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<geom::Vec3> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)});
  }
  return points;
}

std::vector<KdHit> brute_force(const std::vector<geom::Vec3>& points, const geom::Vec3& q,
                               std::size_t k) {
  std::vector<KdHit> hits;
  for (std::size_t i = 0; i < points.size(); ++i) {
    hits.push_back({i, points[i].distance_to(q)});
  }
  std::sort(hits.begin(), hits.end(),
            [](const KdHit& a, const KdHit& b) { return a.distance < b.distance; });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

TEST(KdTree, SinglePoint) {
  const std::vector<geom::Vec3> points{{1, 2, 3}};
  const KdTree tree(points);
  const auto hits = tree.nearest({0, 0, 0}, 5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_NEAR(hits[0].distance, std::sqrt(14.0), 1e-12);
}

TEST(KdTree, EmptySetYieldsNoHits) {
  const KdTree tree(std::vector<geom::Vec3>{});
  EXPECT_TRUE(tree.nearest({0, 0, 0}, 3).empty());
  EXPECT_TRUE(tree.within({0, 0, 0}, 10.0).empty());
}

TEST(KdTree, NearestIsSorted) {
  const auto points = random_points(100, 1);
  const KdTree tree(points);
  const auto hits = tree.nearest({0, 0, 0}, 10);
  ASSERT_EQ(hits.size(), 10u);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

TEST(KdTree, DuplicatePointsAllFound) {
  std::vector<geom::Vec3> points(5, geom::Vec3{1, 1, 1});
  const KdTree tree(points);
  const auto hits = tree.nearest({1, 1, 1}, 5);
  ASSERT_EQ(hits.size(), 5u);
  std::set<std::size_t> indices;
  for (const KdHit& h : hits) {
    EXPECT_DOUBLE_EQ(h.distance, 0.0);
    indices.insert(h.index);
  }
  EXPECT_EQ(indices.size(), 5u);
}

TEST(KdTree, WithinRadius) {
  const std::vector<geom::Vec3> points{{0, 0, 0}, {1, 0, 0}, {3, 0, 0}, {10, 0, 0}};
  const KdTree tree(points);
  const auto hits = tree.within({0, 0, 0}, 3.0);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[2].index, 2u);  // at exactly radius 3 (inclusive)
}

TEST(KdTree, WithinZeroRadiusFindsExactMatches) {
  const std::vector<geom::Vec3> points{{1, 1, 1}, {2, 2, 2}};
  const KdTree tree(points);
  const auto hits = tree.within({1, 1, 1}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 0u);
}

// Property: KD-tree results match brute force for random sets and queries.
class KdTreeVsBruteForce : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KdTreeVsBruteForce, NearestMatches) {
  const std::size_t n = GetParam();
  const auto points = random_points(n, 42 + n);
  const KdTree tree(points);
  util::Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const geom::Vec3 q{rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)};
    const std::size_t k = 1 + rng.index(std::min<std::size_t>(n, 12));
    const auto tree_hits = tree.nearest(q, k);
    const auto brute_hits = brute_force(points, q, k);
    ASSERT_EQ(tree_hits.size(), brute_hits.size());
    for (std::size_t i = 0; i < tree_hits.size(); ++i) {
      // Distances must agree exactly (ties may swap indices).
      EXPECT_DOUBLE_EQ(tree_hits[i].distance, brute_hits[i].distance);
    }
  }
}

TEST_P(KdTreeVsBruteForce, WithinMatches) {
  const std::size_t n = GetParam();
  const auto points = random_points(n, 1000 + n);
  const KdTree tree(points);
  util::Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Vec3 q{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    const double radius = rng.uniform(0.5, 6.0);
    const auto hits = tree.within(q, radius);
    std::size_t brute_count = 0;
    for (const geom::Vec3& p : points) {
      if (p.distance_to(q) <= radius) ++brute_count;
    }
    EXPECT_EQ(hits.size(), brute_count);
    for (const KdHit& h : hits) EXPECT_LE(h.distance, radius);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdTreeVsBruteForce, ::testing::Values(2, 5, 17, 64, 257, 1000));

}  // namespace
}  // namespace remgen::ml
