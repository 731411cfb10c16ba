#include <algorithm>
#include <cmath>
#include <span>

#include <gtest/gtest.h>

#include "audit/audit_voronoi.h"
#include "util/rng.h"
#include "voronoi/delaunay.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  return pts;
}

// Counts real triangles (no synthetic vertex) and checks Euler-consistent
// counts for points in general position: for n >= 3 points with h hull
// vertices, #triangles = 2n - h - 2.
size_t CountRealTriangles(const Delaunay& dt) {
  size_t count = 0;
  const auto real = static_cast<int32_t>(dt.num_real_points());
  for (const auto& t : dt.Triangles()) {
    if (t.v[0] < real && t.v[1] < real && t.v[2] < real) ++count;
  }
  return count;
}

TEST(DelaunayTest, TriangleOfThreePoints) {
  const Delaunay dt({{0, 0}, {10, 0}, {5, 8}});
  EXPECT_EQ(dt.num_real_points(), 3u);
  EXPECT_EQ(CountRealTriangles(dt), 1u);
  EXPECT_TRUE(dt.VerifyDelaunay());
}

TEST(DelaunayTest, DuplicatesCollapsed) {
  const Delaunay dt({{0, 0}, {10, 0}, {5, 8}, {0, 0}, {10, 0}});
  EXPECT_EQ(dt.num_real_points(), 3u);
  EXPECT_TRUE(dt.VerifyDelaunay());
}

TEST(DelaunayTest, SquareHasTwoTriangles) {
  const Delaunay dt({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(CountRealTriangles(dt), 2u);
  EXPECT_TRUE(dt.VerifyDelaunay());
}

TEST(DelaunayTest, CollinearPointsProduceNoRealTriangles) {
  const Delaunay dt({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(CountRealTriangles(dt), 0u);
  EXPECT_TRUE(dt.VerifyDelaunay());
}

TEST(DelaunayTest, RegularGridIsDelaunay) {
  // Cocircular quadruples everywhere: the hardest degenerate input.
  std::vector<Point> pts;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const Delaunay dt(pts);
  EXPECT_TRUE(dt.VerifyDelaunay());
  EXPECT_EQ(CountRealTriangles(dt), 2u * 49u);  // 2 per grid cell
}

TEST(DelaunayTest, NeighborsAreSymmetric) {
  const auto pts = RandomPoints(60, 41);
  const Delaunay dt(pts);
  const auto n = static_cast<int32_t>(dt.num_real_points());
  for (int32_t i = 0; i < n; ++i) {
    for (const int32_t j : dt.Neighbors(i)) {
      const auto back = dt.Neighbors(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end())
          << i << " -> " << j;
    }
  }
}

class DelaunayRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DelaunayRandomTest, EmptyCircumcircleHolds) {
  const auto pts = RandomPoints(GetParam(), 42 + GetParam());
  const Delaunay dt(pts);
  EXPECT_EQ(dt.num_real_points(), pts.size());
  EXPECT_TRUE(dt.VerifyDelaunay());
}

INSTANTIATE_TEST_SUITE_P(Sizes, DelaunayRandomTest,
                         ::testing::Values(4, 10, 50, 200, 500));

TEST(DelaunayTest, TriangleNeighborPointersAreMutual) {
  const auto pts = RandomPoints(120, 44);
  const Delaunay dt(pts);
  const auto tris = dt.Triangles();
  // Index triangles by their sorted vertex triple for reverse lookup.
  for (size_t t = 0; t < tris.size(); ++t) {
    for (int e = 0; e < 3; ++e) {
      const int32_t nb = tris[t].neighbor[e];
      if (nb < 0) continue;
      // The neighbor field holds ids in the internal array; count how many
      // listed triangles point back at a triangle sharing two vertices.
      const int32_t a = tris[t].v[(e + 1) % 3];
      const int32_t b = tris[t].v[(e + 2) % 3];
      bool found = false;
      for (const auto& other : tris) {
        int shared = 0;
        for (const int32_t v : other.v) shared += (v == a || v == b);
        if (shared == 2 && &other != &tris[t]) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << "edge of triangle " << t;
    }
  }
}

TEST(DelaunayTest, NeighborListsMatchPerSiteQueries) {
  const auto pts = RandomPoints(80, 45);
  const Delaunay dt(pts);
  const NeighborTable table = dt.Adjacency();
  ASSERT_EQ(table.size(), dt.num_real_points());
  ASSERT_EQ(table.offsets.front(), 0);
  ASSERT_EQ(static_cast<size_t>(table.offsets.back()), table.ids.size());
  for (int32_t i = 0; i < static_cast<int32_t>(table.size()); ++i) {
    auto single = dt.Neighbors(i);
    std::sort(single.begin(), single.end());
    const std::span<const int32_t> row = table.of(i);
    EXPECT_EQ(std::vector<int32_t>(row.begin(), row.end()), single)
        << "site " << i;
  }
}

// Points in one Hilbert cell share an insertion key, and the key tie is
// broken by ascending point index. The key grid has 2^16 cells per side
// over the bounding box, so clusters narrower than a cell pile hundreds of
// ties, and a cocircular 5x5 lattice sits inside one cell. Any other tie
// order inserts them differently; the digest pins the triangle array
// (vertices and neighbour links) that the (key, index) comparator sort
// gave.
std::vector<Point> TieHeavyPoints() {
  Rng rng(71);
  std::vector<Point> pts = {{0, 0}, {65536, 0}, {0, 65536}, {65536, 65536}};
  for (int c = 0; c < 12; ++c) {
    const double cx = std::floor(rng.Uniform(1, 65000)) + 0.25;
    const double cy = std::floor(rng.Uniform(1, 65000)) + 0.25;
    for (int i = 0; i < 30; ++i) {
      pts.push_back({cx + rng.Uniform(0, 0.5), cy + rng.Uniform(0, 0.5)});
    }
  }
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      pts.push_back({30000.125 + 0.125 * i, 30000.125 + 0.125 * j});
    }
  }
  return pts;
}

uint64_t TriangleDigest(const Delaunay& dt) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&](int32_t x) {
    h ^= static_cast<uint32_t>(x);
    h *= 1099511628211ull;
  };
  for (const Delaunay::Triangle& t : dt.Triangles()) {
    for (const int32_t v : t.v) mix(v);
    for (const int32_t n : t.neighbor) mix(n);
  }
  return h;
}

TEST(DelaunayTest, HilbertTiesInsertInIndexOrder) {
  const Delaunay dt(TieHeavyPoints());
  ASSERT_EQ(dt.num_real_points(), 389u);
  EXPECT_EQ(dt.Triangles().size(), 780u);
  EXPECT_EQ(TriangleDigest(dt), 0xa893447c33a02b94ull);
  EXPECT_TRUE(dt.VerifyDelaunay());
}

TEST(DelaunayTest, ClusteredPointsRemainValid) {
  Rng rng(43);
  std::vector<Point> pts;
  for (int c = 0; c < 5; ++c) {
    const Point center{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    for (int i = 0; i < 40; ++i) {
      pts.push_back(
          {center.x + rng.NextGaussian(), center.y + rng.NextGaussian()});
    }
  }
  const Delaunay dt(pts);
  EXPECT_TRUE(dt.VerifyDelaunay());
}

// The predicates' degree-4 terms overflow far above unit scale and
// underflow far below it, which used to drop Delaunay edges silently (and
// give overlapping Voronoi cells). Scaling every coordinate by a power of
// two must not change the triangulation.
TEST(DelaunayTest, NeighborListsIgnorePowerOfTwoScale) {
  const auto scaled = [](const std::vector<Point>& pts, int k) {
    std::vector<Point> out;
    for (const Point& p : pts) {
      out.push_back({std::ldexp(p.x, k), std::ldexp(p.y, k)});
    }
    return out;
  };
  const Rect unit(-2, -2, 2, 2);
  Rng rng(47);
  std::vector<Point> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.Uniform(-1.9, 1.9), rng.Uniform(-1.9, 1.9)});
  }
  const NeighborTable expected = Delaunay(pts).Adjacency();
  for (const int k : {-600, -250, 0, 250, 600}) {
    const std::vector<Point> input = scaled(pts, k);
    const Delaunay dt(input);
    const NeighborTable table = dt.Adjacency();
    EXPECT_EQ(table.offsets, expected.offsets) << "scale 2^" << k;
    EXPECT_EQ(table.ids, expected.ids) << "scale 2^" << k;
    // points() keeps the caller's coordinates.
    for (size_t i = 0; i < dt.num_real_points(); ++i) {
      EXPECT_TRUE(std::find(input.begin(), input.end(), dt.points()[i]) !=
                  input.end())
          << "scale 2^" << k << " point " << i;
    }
    if (std::abs(k) == 250) {
      const Rect bounds(std::ldexp(unit.min_x, k), std::ldexp(unit.min_y, k),
                        std::ldexp(unit.max_x, k), std::ldexp(unit.max_y, k));
      const AuditReport report =
          AuditVoronoi(VoronoiDiagram::Build(input, bounds));
      EXPECT_TRUE(report.ok()) << "scale 2^" << k << ": " << report.Summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Insert and Remove on a triangulation built over a world rectangle

constexpr Rect kWorld(0, 0, 100, 100);

// The live vertex at `p` (a removed one has no neighbours), or -1.
int32_t VertexAt(const Delaunay& dt, const Point& p) {
  for (size_t v = 0; v < dt.points().size(); ++v) {
    const auto id = static_cast<int32_t>(v);
    if (!dt.IsSynthetic(id) && dt.points()[v] == p &&
        !dt.Neighbors(id).empty()) {
      return id;
    }
  }
  return -1;
}

// The real Delaunay neighbours of the vertex at `p`, sorted by LessXY.
std::vector<Point> NeighborPoints(const Delaunay& dt, const Point& p) {
  const int32_t v = VertexAt(dt, p);
  EXPECT_GE(v, 0);
  std::vector<Point> out;
  for (const int32_t nb : dt.Neighbors(v)) out.push_back(dt.points()[nb]);
  std::sort(out.begin(), out.end(), LessXY);
  return out;
}

std::vector<int32_t> Sorted(std::vector<int32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(DelaunayMutationTest, InsertionMatchesBatchConstruction) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<Point> points = RandomPoints(40, seed);
    const Delaunay batch(points);
    Delaunay grown(std::vector<Point>(points.begin(), points.begin() + 5),
                   kWorld);
    for (size_t i = 5; i < points.size(); ++i) {
      std::vector<int32_t> affected;
      const int32_t v = grown.Insert(points[i], &affected);
      ASSERT_GE(v, 0) << "seed " << seed;
      // The inserted vertex and its new neighbours are the affected set.
      std::vector<int32_t> expected = grown.Neighbors(v);
      expected.push_back(v);
      EXPECT_EQ(Sorted(affected), Sorted(expected)) << "seed " << seed;
    }
    ASSERT_TRUE(grown.VerifyDelaunay()) << "seed " << seed;
    ASSERT_EQ(grown.num_real_points(), batch.num_real_points());
    // Random points are in general position, so the Delaunay triangulation
    // is unique: every site must have the same neighbour set either way.
    for (const Point& p : points) {
      EXPECT_EQ(NeighborPoints(grown, p), NeighborPoints(batch, p))
          << "seed " << seed;
    }
  }
}

TEST(DelaunayMutationTest, RemovalMatchesFreshConstruction) {
  for (uint64_t seed = 11; seed <= 18; ++seed) {
    std::vector<Point> points = RandomPoints(36, seed);
    Delaunay dt(points, kWorld);
    Rng rng(seed * 31 + 7);
    // Remove a third of the sites one by one.
    for (int step = 0; step < 12; ++step) {
      const size_t victim = rng.NextBelow(points.size());
      const int32_t v = VertexAt(dt, points[victim]);
      ASSERT_GE(v, 0) << "seed " << seed;
      const std::vector<int32_t> former = dt.Neighbors(v);
      std::vector<int32_t> affected;
      ASSERT_TRUE(dt.Remove(v, &affected)) << "seed " << seed;
      EXPECT_EQ(Sorted(affected), Sorted(former)) << "seed " << seed;
      EXPECT_EQ(VertexAt(dt, points[victim]), -1);
      points.erase(points.begin() + static_cast<ptrdiff_t>(victim));
    }
    ASSERT_TRUE(dt.VerifyDelaunay()) << "seed " << seed;
    const Delaunay fresh(points);
    ASSERT_EQ(dt.num_real_points(), fresh.num_real_points());
    for (const Point& p : points) {
      EXPECT_EQ(NeighborPoints(dt, p), NeighborPoints(fresh, p))
          << "seed " << seed;
    }
  }
}

TEST(DelaunayMutationTest, RejectsDuplicateInsertAndAbsentRemove) {
  const std::vector<Point> points = RandomPoints(10, 3);
  Delaunay dt(points, kWorld);
  EXPECT_EQ(dt.Insert(points[4], nullptr), -1);  // already a vertex
  EXPECT_EQ(dt.Insert({150.0, 50.0}, nullptr), -1);  // outside the world
  EXPECT_EQ(dt.num_real_points(), points.size());
  EXPECT_FALSE(dt.Remove(-1, nullptr));  // no such vertex
  EXPECT_FALSE(dt.Remove(1000, nullptr));
  ASSERT_TRUE(dt.IsSynthetic(static_cast<int32_t>(points.size())));
  EXPECT_FALSE(dt.Remove(static_cast<int32_t>(points.size()), nullptr));
  const int32_t v = VertexAt(dt, points[4]);
  ASSERT_TRUE(dt.Remove(v, nullptr));
  EXPECT_FALSE(dt.Remove(v, nullptr));  // already removed
  EXPECT_EQ(dt.num_real_points(), points.size() - 1);
  EXPECT_TRUE(dt.VerifyDelaunay());
}

}  // namespace
}  // namespace movd
