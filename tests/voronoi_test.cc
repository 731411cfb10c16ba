#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "audit/audit_voronoi.h"
#include "audit/audit_weighted.h"
#include "geom/predicates.h"
#include "util/rng.h"
#include "voronoi/delaunay.h"
#include "voronoi/site_grid.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  return pts;
}

TEST(VoronoiTest, SingleSiteOwnsWholeBounds) {
  const auto vd = VoronoiDiagram::Build({{50, 50}}, kBounds);
  ASSERT_EQ(vd.cells().size(), 1u);
  EXPECT_DOUBLE_EQ(vd.cells()[0].region.Area(), kBounds.Area());
}

TEST(VoronoiTest, TwoSitesSplitAlongBisector) {
  const auto vd = VoronoiDiagram::Build({{25, 50}, {75, 50}}, kBounds);
  ASSERT_EQ(vd.cells().size(), 2u);
  EXPECT_DOUBLE_EQ(vd.cells()[0].region.Area(), 5000.0);
  EXPECT_DOUBLE_EQ(vd.cells()[1].region.Area(), 5000.0);
  EXPECT_TRUE(vd.cells()[0].region.Contains({10, 50}));
  EXPECT_FALSE(vd.cells()[0].region.Contains({90, 50}));
}

TEST(VoronoiTest, DuplicateSitesCollapse) {
  const auto vd =
      VoronoiDiagram::Build({{25, 50}, {25, 50}, {75, 50}}, kBounds);
  EXPECT_EQ(vd.sites().size(), 2u);
}

// The partition property: cells tile the bounds (areas sum to the bounds'
// area) and every random point lies in the cell of its nearest site.
class VoronoiPartitionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VoronoiPartitionTest, CellsTileBounds) {
  const auto sites = RandomPoints(GetParam(), 51 + GetParam());
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  double total = 0.0;
  for (const auto& cell : vd.cells()) total += cell.region.Area();
  EXPECT_NEAR(total, kBounds.Area(), 1e-6 * kBounds.Area());
}

TEST_P(VoronoiPartitionTest, RandomPointsLandInNearestSiteCell) {
  const auto sites = RandomPoints(GetParam(), 52 + GetParam());
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  Rng rng(53);
  for (int i = 0; i < 200; ++i) {
    const Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const int32_t nearest = vd.NearestSiteBrute(q);
    // The nearest site's cell must contain q (up to boundary ties, where
    // several cells may contain it; the nearest one always does).
    EXPECT_TRUE(vd.cells()[nearest].region.Contains(q))
        << "site " << nearest << " q=(" << q.x << "," << q.y << ")";
  }
}

TEST_P(VoronoiPartitionTest, EveryCellContainsItsSite) {
  const auto sites = RandomPoints(GetParam(), 54 + GetParam());
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  for (size_t i = 0; i < vd.sites().size(); ++i) {
    EXPECT_TRUE(vd.cells()[i].region.Contains(vd.sites()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, VoronoiPartitionTest,
                         ::testing::Values(2, 5, 20, 100, 400));

TEST(VoronoiTest, AgreesWithDelaunayNeighbours) {
  // The set of sites whose bisectors bound an interior cell equals the
  // site's Delaunay neighbours (for cells not clipped by the bounds).
  const auto sites = RandomPoints(80, 55);
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  const Delaunay dt(vd.sites());
  Rng rng(56);
  for (int trial = 0; trial < 50; ++trial) {
    const Point q{rng.Uniform(20, 80), rng.Uniform(20, 80)};
    // Voronoi assignment via cells == nearest by Delaunay-verified brute.
    const int32_t nearest = vd.NearestSiteBrute(q);
    EXPECT_TRUE(vd.cells()[nearest].region.Contains(q));
  }
  EXPECT_TRUE(dt.VerifyDelaunay());
}

TEST(VoronoiTest, GridSitesDegenerateConfiguration) {
  std::vector<Point> sites;
  for (int x = 1; x <= 5; ++x) {
    for (int y = 1; y <= 5; ++y) {
      sites.push_back({x * 100.0 / 6.0, y * 100.0 / 6.0});
    }
  }
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  double total = 0.0;
  for (const auto& cell : vd.cells()) total += cell.region.Area();
  EXPECT_NEAR(total, kBounds.Area(), 1e-6 * kBounds.Area());
}

// Oracles for the cell builder: NearestSiteBrute (a linear scan) places
// every query point, and AuditVoronoi checks each cell is a valid convex
// ring holding its site, that interiors are pairwise disjoint, and that
// the cells tile the bounds.
class VoronoiOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VoronoiOracleTest, NearestSiteCellContainsQuery) {
  const auto vd =
      VoronoiDiagram::Build(RandomPoints(GetParam(), 58 + GetParam()), kBounds);
  ASSERT_EQ(vd.cells().size(), vd.sites().size());
  Rng rng(59);
  for (int t = 0; t < 100; ++t) {
    const Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const int32_t nearest = vd.NearestSiteBrute(q);
    EXPECT_TRUE(vd.cells()[nearest].region.Contains(q))
        << "site " << nearest << " q=(" << q.x << "," << q.y << ")";
  }
}

TEST_P(VoronoiOracleTest, AuditAcceptsDiagram) {
  const auto vd =
      VoronoiDiagram::Build(RandomPoints(GetParam(), 58 + GetParam()), kBounds);
  const AuditReport report = AuditVoronoi(vd);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Sizes, VoronoiOracleTest,
                         ::testing::Values(1, 2, 3, 10, 60, 300));

TEST(VoronoiOracleTest, DegenerateGridCellsAreStripProducts) {
  std::vector<Point> sites;
  for (int x = 1; x <= 4; ++x) {
    for (int y = 1; y <= 4; ++y) {
      sites.push_back({x * 20.0, y * 20.0});
    }
  }
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  ASSERT_EQ(vd.cells().size(), 16u);
  // Sites sort by x then y; each axis splits [0, 100] into strips of
  // 30, 20, 20, 30 at the midpoints between grid lines.
  const double strip[] = {30.0, 20.0, 20.0, 30.0};
  for (size_t i = 0; i < vd.cells().size(); ++i) {
    EXPECT_NEAR(vd.cells()[i].region.Area(), strip[i / 4] * strip[i % 4],
                1e-9)
        << "cell " << i;
  }
  EXPECT_TRUE(AuditVoronoi(vd).ok());
}

TEST(VoronoiOracleTest, CollinearSitesCutStrips) {
  const std::vector<Point> sites = {{20, 50}, {40, 50}, {60, 50}, {80, 50}};
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  ASSERT_EQ(vd.cells().size(), 4u);
  // Strips [0,30], [30,50], [50,70], [70,100] x [0,100].
  const double expected[] = {3000.0, 2000.0, 2000.0, 3000.0};
  for (size_t i = 0; i < vd.cells().size(); ++i) {
    EXPECT_NEAR(vd.cells()[i].region.Area(), expected[i], 1e-9);
  }
  EXPECT_TRUE(AuditVoronoi(vd).ok());
}

// The cell builder against a reference made of public per-site parts:
// Delaunay::Neighbors(i) sorted ascending (LessXY order, since the sites
// are LessXY-sorted), each bisector applied by
// ConvexPolygon::ClipByHalfPlane to ConvexPolygon::FromRect(bounds). Build
// reads a flat neighbour table and clips on scratch rings, so this pins
// that those containers change no bit of any cell.
ConvexPolygon ReferenceCell(const Delaunay& dt, int32_t site,
                            const Rect& bounds) {
  std::vector<int32_t> neighbors = dt.Neighbors(site);
  std::sort(neighbors.begin(), neighbors.end());
  ConvexPolygon cell = ConvexPolygon::FromRect(bounds);
  const Point& p = dt.points()[site];
  for (const int32_t j : neighbors) {
    if (cell.Empty()) break;
    const Point& q = dt.points()[j];
    const Point mid = (p + q) * 0.5;
    const Point dir{-(q.y - p.y), q.x - p.x};
    cell.ClipByHalfPlane(mid, mid + dir);
  }
  return cell;
}

void ExpectCellsMatchReference(const std::vector<Point>& input,
                               const Rect& bounds) {
  const auto vd = VoronoiDiagram::Build(input, bounds);
  ASSERT_EQ(vd.cells().size(), vd.sites().size());
  ASSERT_FALSE(vd.sites().empty());
  const Delaunay dt(vd.sites());
  for (size_t i = 0; i < vd.sites().size(); ++i) {
    const auto site = static_cast<int32_t>(i);
    const ConvexPolygon expected = ReferenceCell(dt, site, bounds);
    const std::vector<Point>& got = vd.cells()[i].region.vertices();
    ASSERT_EQ(vd.cells()[i].site, site);
    ASSERT_EQ(got.size(), expected.vertices().size()) << "cell " << i;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(std::memcmp(&got[k], &expected.vertices()[k], sizeof(Point)),
                0)
          << "cell " << i << " vertex " << k;
    }
  }
  // first_input() names the lowest input index at each site.
  ASSERT_EQ(vd.first_input().size(), vd.sites().size());
  for (size_t i = 0; i < vd.sites().size(); ++i) {
    const auto first = static_cast<size_t>(vd.first_input()[i]);
    ASSERT_LT(first, input.size());
    EXPECT_TRUE(input[first] == vd.sites()[i]) << "site " << i;
    for (size_t j = 0; j < first; ++j) {
      EXPECT_FALSE(input[j] == vd.sites()[i]) << "site " << i;
    }
  }
}

std::vector<Point> Scaled(std::vector<Point> pts, int k) {
  for (Point& p : pts) p = {std::ldexp(p.x, k), std::ldexp(p.y, k)};
  return pts;
}

Rect Scaled(const Rect& r, int k) {
  return Rect(std::ldexp(r.min_x, k), std::ldexp(r.min_y, k),
              std::ldexp(r.max_x, k), std::ldexp(r.max_y, k));
}

TEST(VoronoiBitIdentityTest, UniformSites) {
  ExpectCellsMatchReference(RandomPoints(1000, 61), kBounds);
}

TEST(VoronoiBitIdentityTest, CocircularIntegerGrid) {
  std::vector<Point> sites;
  for (int x = 0; x < 40; ++x) {
    for (int y = 0; y < 40; ++y) sites.push_back({x * 2.0 + 10, y * 2.0 + 10});
  }
  ExpectCellsMatchReference(sites, kBounds);
}

TEST(VoronoiBitIdentityTest, DuplicateSites) {
  std::vector<Point> sites = RandomPoints(200, 62);
  const std::vector<Point> copy = sites;
  sites.insert(sites.end(), copy.rbegin(), copy.rbegin() + 80);
  sites.insert(sites.begin(), copy.begin() + 20, copy.begin() + 60);
  ExpectCellsMatchReference(sites, kBounds);
}

TEST(VoronoiBitIdentityTest, CollinearRow) {
  std::vector<Point> sites;
  for (int i = 0; i < 50; ++i) sites.push_back({99.0 - 1.9 * i, 50});
  ExpectCellsMatchReference(sites, kBounds);
}

TEST(VoronoiBitIdentityTest, PowerOfTwoScales) {
  const std::vector<Point> sites = RandomPoints(300, 63);
  for (const int k : {-250, 250}) {
    ExpectCellsMatchReference(Scaled(sites, k), Scaled(kBounds, k));
  }
}

TEST(VoronoiBitIdentityTest, BoundsMissingSomeSites) {
  // Sites spread over [0, 100]^2, bounds over a corner: many cells empty.
  ExpectCellsMatchReference(RandomPoints(400, 64), Rect(10, 60, 35, 95));
}

TEST(VoronoiBitIdentityTest, SingleSite) {
  ExpectCellsMatchReference({{30, 40}}, kBounds);
  // Bounds with zero width or height hold no cell.
  ExpectCellsMatchReference({{30, 40}, {60, 70}}, Rect(20, 0, 20, 100));
  ExpectCellsMatchReference({{30, 40}, {60, 70}}, Rect(0, 50, 100, 50));
}

// VoronoiWalkTest: the grid's nearest-site query (SiteGrid::Nearest, the
// ring search that replaced the Delaunay walk) on the walk's input
// families. Its site is exactly as close to every query as the
// brute-force nearest one, no site is strictly closer (CompareDistance over
// every site), and on exact ties it is the LessXY-least of the nearest.
void ExpectWalkMatchesBrute(const std::vector<Point>& input,
                            const std::vector<Point>& queries) {
  const SiteGrid grid(input);
  const VoronoiDiagram vd = VoronoiDiagram::Triangulate(input, kBounds);
  ASSERT_EQ(grid.sites().size(), vd.sites().size());
  size_t scanned = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Point& q = queries[i];
    const int32_t got = grid.Nearest(q, &scanned);
    ASSERT_GE(got, 0) << "query " << i;
    const Point& site = grid.sites()[got];
    EXPECT_EQ(CompareDistance(q, site, vd.sites()[vd.NearestSiteBrute(q)]),
              0.0)
        << "query " << i << " (" << q.x << ", " << q.y << ")";
    for (const Point& other : vd.sites()) {
      const double c = CompareDistance(q, other, site);
      EXPECT_TRUE(c > 0.0 || (c == 0.0 && !LessXY(other, site)))
          << "query " << i << " (" << q.x << ", " << q.y << ")";
    }
    // The site names the first input point at its location.
    const int32_t first = grid.first_input()[got];
    EXPECT_EQ(input[first], site);
    for (int32_t k = 0; k < first; ++k) EXPECT_NE(input[k], site);
  }
  EXPECT_GE(scanned, queries.size());
}

std::vector<Point> GridQueries(double lo, double hi, double step) {
  std::vector<Point> queries;
  for (double x = lo; x <= hi; x += step) {
    for (double y = lo; y <= hi; y += step) queries.push_back({x, y});
  }
  return queries;
}

TEST(VoronoiWalkTest, UniformSites) {
  ExpectWalkMatchesBrute(RandomPoints(500, 71), RandomPoints(300, 72));
}

TEST(VoronoiWalkTest, CocircularIntegerGridWithBisectorQueries) {
  // Sites on even integers; queries on every integer and half-integer, so
  // many lie on bisectors and on Voronoi vertices.
  std::vector<Point> sites;
  for (int x = 0; x < 20; ++x) {
    for (int y = 0; y < 20; ++y) sites.push_back({x * 2.0 + 30, y * 2.0 + 30});
  }
  ExpectWalkMatchesBrute(sites, GridQueries(20, 80, 0.5));
}

TEST(VoronoiWalkTest, DuplicateSites) {
  std::vector<Point> sites = RandomPoints(150, 73);
  const std::vector<Point> copy = sites;
  sites.insert(sites.end(), copy.rbegin(), copy.rbegin() + 60);
  ExpectWalkMatchesBrute(sites, RandomPoints(200, 74));
  ExpectWalkMatchesBrute(sites, copy);  // queries on the sites themselves
}

TEST(VoronoiWalkTest, CollinearRow) {
  std::vector<Point> sites;
  for (int i = 0; i < 40; ++i) sites.push_back({90.0 - 2.0 * i, 50});
  // Row midpoints lie on the bisectors of neighbouring sites.
  std::vector<Point> queries = GridQueries(0, 100, 2.5);
  for (int i = 0; i < 39; ++i) queries.push_back({89.0 - 2.0 * i, 70});
  ExpectWalkMatchesBrute(sites, queries);
}

TEST(VoronoiWalkTest, TightClusterQueriedFromAfar) {
  // Sites packed 2^-30 apart around one point, queries across the grown
  // cover: the squared distances differ far below a double's precision.
  std::vector<Point> sites;
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 3; ++j) {
      sites.push_back({50 + std::ldexp(i, -30), 50 + std::ldexp(j * i, -30)});
    }
  }
  std::vector<Point> queries;
  for (int k = 0; k < 200; ++k) {
    queries.push_back({50 + std::ldexp(k - 100, -26),
                       50 + std::ldexp(k % 7 - 3, -27)});
  }
  ExpectWalkMatchesBrute(sites, queries);
}

TEST(VoronoiWalkTest, PowerOfTwoScales) {
  const std::vector<Point> sites = RandomPoints(200, 75);
  const std::vector<Point> queries = RandomPoints(100, 76);
  const SiteGrid unit(sites);
  for (const int k : {-300, -80, 40}) {
    const SiteGrid grid(Scaled(sites, k));
    ExpectWalkMatchesBrute(Scaled(sites, k), Scaled(queries, k));
    // Scaling by a power of two changes no distance comparison.
    for (const Point& q : queries) {
      const Point scaled{std::ldexp(q.x, k), std::ldexp(q.y, k)};
      const int32_t got = grid.Nearest(scaled);
      ASSERT_GE(got, 0);
      EXPECT_EQ(grid.first_input()[got],
                unit.first_input()[unit.Nearest(q)]);
    }
  }
}

TEST(VoronoiWalkTest, RefusesWhereItIsNotExact) {
  const std::vector<Point> three = {{40, 40}, {60, 40}, {50, 60}};
  const SiteGrid grid(three);
  const auto nearest = [&](const Point& q) {
    const int32_t site = grid.Nearest(q);
    return site < 0 ? -1 : grid.first_input()[site];
  };
  // Exact anywhere in ExactDistanceRange, however far from the sites.
  EXPECT_EQ(nearest({-20441, 50}), 0);
  EXPECT_EQ(nearest({50, 1e18}), 2);
  EXPECT_EQ(nearest({1e19, -1e19}), 1);
  // Queries outside the range are refused.
  EXPECT_EQ(nearest({50, 1e30}), -1);
  EXPECT_EQ(nearest({50, 0x1p-500}), -1);
  // One site is nearest to every query in range.
  const std::vector<Point> one_site = {{5, 5}};
  EXPECT_EQ(SiteGrid(one_site).Nearest({1e6, -1e6}), 0);
  // Sites outside ExactDistanceRange: no query at all; nor on no sites.
  const std::vector<Point> huge = {{1e30, 0}, {2e30, 0}};
  EXPECT_EQ(SiteGrid(huge).Nearest({1e30, 0}), -1);
  EXPECT_EQ(SiteGrid(std::vector<Point>()).Nearest({1, 1}), -1);
}

TEST(VoronoiWalkTest, MaskedClipKeepsExactlyTheMarkedCells) {
  const std::vector<Point> sites = RandomPoints(300, 77);
  const VoronoiDiagram full = VoronoiDiagram::Build(sites, kBounds);
  VoronoiDiagram masked = VoronoiDiagram::Triangulate(sites, kBounds);
  std::vector<uint8_t> keep(masked.sites().size());
  for (size_t i = 0; i < keep.size(); ++i) keep[i] = i % 3 != 0;
  masked.ClipCells(keep);
  ASSERT_EQ(masked.cells().size(), full.cells().size());
  for (size_t i = 0; i < keep.size(); ++i) {
    const std::vector<Point>& got = masked.cells()[i].region.vertices();
    if (keep[i] == 0) {
      EXPECT_TRUE(got.empty()) << "cell " << i;
      continue;
    }
    const std::vector<Point>& want = full.cells()[i].region.vertices();
    ASSERT_EQ(got.size(), want.size()) << "cell " << i;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Point)),
              0)
        << "cell " << i;
  }
  EXPECT_TRUE(AuditKeptCells(full, masked.cells(), keep).ok());
  // A dropped cell that is not empty, or a kept one that differs, is
  // reported.
  keep[1] = 0;
  EXPECT_FALSE(AuditKeptCells(full, masked.cells(), keep).ok());
  keep[1] = 1;
  keep[0] = 1;
  EXPECT_FALSE(AuditKeptCells(full, masked.cells(), keep).ok());
}

// ClipKeptCells against VoronoiDiagram::Build over the same sites, with
// the `count` sites nearest to `centre` kept (plus `extra`, given as input
// points): every kept cell is bit-equal to its cell in the full diagram
// and every other cell is empty (AuditKeptCells, in the full diagram's
// site order). Returns what ClipKeptCells reported.
KeptCellsStats ExpectKeptCellsMatchBuild(const std::vector<Point>& input,
                                         const Rect& bounds,
                                         const Point& centre, size_t count,
                                         const std::vector<Point>& extra = {}) {
  const SiteGrid grid(input);
  const std::vector<Point>& sites = grid.sites();
  std::vector<int32_t> order(sites.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return Distance2(sites[a], centre) < Distance2(sites[b], centre);
  });
  std::vector<uint8_t> keep(sites.size(), 0);
  for (size_t i = 0; i < std::min(count, order.size()); ++i) {
    keep[order[i]] = 1;
  }
  for (size_t i = 0; i < sites.size(); ++i) {
    if (std::find(extra.begin(), extra.end(), sites[i]) != extra.end()) {
      keep[i] = 1;
    }
  }
  KeptCellsStats stats;
  const std::vector<VoronoiCell> cells =
      ClipKeptCells(grid, keep, bounds, &stats);
  const VoronoiDiagram full = VoronoiDiagram::Build(sites, bounds);
  EXPECT_EQ(full.sites().size(), sites.size());
  std::vector<VoronoiCell> sorted(sites.size());
  std::vector<uint8_t> sorted_keep(sites.size());
  size_t clipped = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const int32_t k = full.first_input()[i];
    EXPECT_EQ(cells[k].site, k);
    sorted[i] = {static_cast<int32_t>(i), cells[k].region};
    sorted_keep[i] = keep[k];
    clipped += cells[k].region.Empty() ? 0 : 1;
  }
  const AuditReport report = AuditKeptCells(full, sorted, sorted_keep);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(clipped, 0u);
  if (stats.full_fallbacks == 0) {
    EXPECT_LT(stats.sites, sites.size());
    EXPECT_GE(stats.halo_rings, 1u);
  } else {
    EXPECT_EQ(stats.sites, sites.size());
  }
  return stats;
}

// Gaussian clusters around `centres` random town centres, as perfbench's
// CH/SCH classes gather (sigma 2% of the diagonal).
std::vector<Point> ClusteredPoints(size_t n, int centres, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> anchors;
  for (int i = 0; i < centres; ++i) {
    anchors.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  std::vector<Point> pts;
  while (pts.size() < n) {
    const Point& c = anchors[rng.NextBelow(anchors.size())];
    const Point p{c.x + 2.83 * rng.NextGaussian(),
                  c.y + 2.83 * rng.NextGaussian()};
    if (kBounds.Contains(p)) pts.push_back(p);
  }
  return pts;
}

TEST(KeptCellsTest, UniformSitesCertifyLocally) {
  const std::vector<Point> sites = RandomPoints(2000, 81);
  for (const Point& centre : {Point{50, 50}, Point{12, 80}, Point{95, 5}}) {
    const KeptCellsStats stats =
        ExpectKeptCellsMatchBuild(sites, kBounds, centre, 12);
    EXPECT_EQ(stats.full_fallbacks, 0u);
    EXPECT_LT(stats.sites, 200u);
  }
  // A bounds rectangle that misses some kept cells entirely.
  EXPECT_EQ(ExpectKeptCellsMatchBuild(sites, Rect(10, 10, 30, 30),
                                      Point{32, 20}, 20)
                .full_fallbacks,
            0u);
}

TEST(KeptCellsTest, ClusteredSitesCertifyLocally) {
  const std::vector<Point> sites = ClusteredPoints(1000, 64, 82);
  // Kept sites inside a cluster, and between clusters.
  for (const Point& centre :
       {sites[0], sites[500], Point{50, 50}, Point{30, 70}}) {
    EXPECT_EQ(
        ExpectKeptCellsMatchBuild(sites, kBounds, centre, 4).full_fallbacks,
        0u);
  }
}

TEST(KeptCellsTest, DuplicateSitesCertifyLocally) {
  std::vector<Point> sites = RandomPoints(1500, 83);
  const std::vector<Point> copy = sites;
  sites.insert(sites.end(), copy.rbegin(), copy.rbegin() + 300);
  sites.insert(sites.begin(), copy.begin() + 20, copy.begin() + 200);
  EXPECT_EQ(ExpectKeptCellsMatchBuild(sites, kBounds, Point{40, 60}, 15)
                .full_fallbacks,
            0u);
}

TEST(KeptCellsTest, PowerOfTwoScalesCertifyLocally) {
  const std::vector<Point> sites = RandomPoints(1500, 84);
  for (const int k : {-250, -40, 40}) {
    EXPECT_EQ(ExpectKeptCellsMatchBuild(Scaled(sites, k), Scaled(kBounds, k),
                                        Point{std::ldexp(50.0, k),
                                              std::ldexp(50.0, k)},
                                        10)
                  .full_fallbacks,
              0u);
  }
  // Outside ExactDistanceRange the certificate is not attempted.
  for (const int k : {250, 300}) {
    EXPECT_EQ(ExpectKeptCellsMatchBuild(Scaled(sites, k), Scaled(kBounds, k),
                                        Point{std::ldexp(50.0, k),
                                              std::ldexp(50.0, k)},
                                        10)
                  .full_fallbacks,
              1u);
  }
}

TEST(KeptCellsTest, CocircularIntegerGridFallsBack) {
  // Every Delaunay square of the lattice has four cocircular corners, so
  // a kept star meets a site exactly on a circle.
  std::vector<Point> sites;
  for (int x = 0; x < 30; ++x) {
    for (int y = 0; y < 30; ++y) sites.push_back({x * 3.0 + 5, y * 3.0 + 5});
  }
  EXPECT_EQ(ExpectKeptCellsMatchBuild(sites, kBounds, Point{50.2, 50.1}, 6)
                .full_fallbacks,
            1u);
}

TEST(KeptCellsTest, CollinearRowFallsBack) {
  // Every site of a row is on the hull.
  std::vector<Point> sites;
  for (int i = 0; i < 200; ++i) sites.push_back({99.0 - 0.49 * i, 50});
  EXPECT_EQ(ExpectKeptCellsMatchBuild(sites, kBounds, Point{50, 50}, 5)
                .full_fallbacks,
            1u);
}

TEST(KeptCellsTest, KeptHullSiteCertifiesLocally) {
  // The LessXY-least site is a vertex of the hull: its real triangles fan
  // between its two hull neighbours, and no site lies outside that wedge.
  const std::vector<Point> sites = RandomPoints(2000, 85);
  const Point corner = *std::min_element(sites.begin(), sites.end(), LessXY);
  const Point top = *std::max_element(
      sites.begin(), sites.end(),
      [](const Point& a, const Point& b) { return a.y < b.y; });
  EXPECT_EQ(ExpectKeptCellsMatchBuild(sites, kBounds, Point{50, 50}, 8,
                                      {corner, top})
                .full_fallbacks,
            0u);
  EXPECT_EQ(ExpectKeptCellsMatchBuild(sites, kBounds, corner, 5).full_fallbacks,
            0u);
  // Every site kept: a hull site among them.
  EXPECT_EQ(ExpectKeptCellsMatchBuild(sites, kBounds, Point{50, 50},
                                      sites.size())
                .full_fallbacks,
            1u);
}

TEST(KeptCellsTest, NothingKeptTriangulatesNothing) {
  const SiteGrid grid(RandomPoints(100, 86));
  const std::vector<uint8_t> keep(grid.sites().size(), 0);
  KeptCellsStats stats;
  for (const VoronoiCell& cell : ClipKeptCells(grid, keep, kBounds, &stats)) {
    EXPECT_TRUE(cell.region.Empty());
  }
  EXPECT_EQ(stats.sites, 0u);
  EXPECT_EQ(stats.full_fallbacks, 0u);
}

// The dense-grid audit oracle. These tests assert dense-sampler semantics
// — per-cell sample counts over the exact requested lattice.
std::vector<WeightedCellApprox> DenseCells(const std::vector<WeightedSite>& ws,
                                           int resolution) {
  return ApproximateWeightedVoronoi(ws, kBounds, resolution);
}

TEST(WeightedVoronoiTest, EqualWeightsMatchOrdinaryAssignment) {
  const auto sites = RandomPoints(10, 57);
  std::vector<WeightedSite> ws;
  for (const Point& p : sites) ws.push_back(MultiplicativeSite(p, 2.5));
  const auto cells = DenseCells(ws, 64);
  const auto vd = VoronoiDiagram::Build(sites, kBounds);
  // Each weighted cell's MBR must cover the corresponding ordinary cell
  // (the diagram sorts its sites, so match cells through the site point).
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_FALSE(cells[i].empty);
    for (size_t j = 0; j < vd.sites().size(); ++j) {
      if (vd.sites()[j] == sites[i]) {
        EXPECT_TRUE(cells[i].mbr.Intersects(vd.cells()[j].region.Bbox()));
      }
    }
  }
}

TEST(WeightedVoronoiTest, HeavyWeightShrinksCell) {
  // Multiplicative weights: larger weight means larger weighted distance,
  // hence a smaller dominance region.
  const std::vector<WeightedSite> ws = {MultiplicativeSite({30, 50}, 1.0),
                                        MultiplicativeSite({70, 50}, 4.0)};
  const auto cells = DenseCells(ws, 128);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_GT(cells[0].sample_count, 3 * cells[1].sample_count);
}

TEST(WeightedVoronoiTest, AdditiveWeightsShiftBoundary) {
  const std::vector<WeightedSite> ws = {AdditiveSite({30, 50}, 0.0),
                                        AdditiveSite({70, 50}, 20.0)};
  const auto cells = DenseCells(ws, 128);
  ASSERT_EQ(cells.size(), 2u);
  // The additive handicap moves the boundary 10 units toward site 1:
  // boundary near x = 60.
  EXPECT_GT(cells[0].sample_count, cells[1].sample_count);
  EXPECT_GT(cells[0].mbr.max_x, 55.0);
}

TEST(WeightedVoronoiTest, AffineSitesCombineBothDeformations) {
  // Site 0 is cheap per meter but carries a fixed cost; site 1 is the
  // reverse. Near site 1 the fixed cost dominates; far away the slope does.
  const std::vector<WeightedSite> ws = {{{30, 50}, 1.0, 30.0},
                                        {{70, 50}, 3.0, 0.0}};
  const auto cells = DenseCells(ws, 128);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_FALSE(cells[0].empty);
  EXPECT_FALSE(cells[1].empty);
  // Cross-check a few sample dominances directly against the metric.
  EXPECT_LT(WeightedSiteDistance({70, 50}, ws[1]),
            WeightedSiteDistance({70, 50}, ws[0]));
  EXPECT_LT(WeightedSiteDistance({0, 50}, ws[0]),
            WeightedSiteDistance({0, 50}, ws[1]));
}

TEST(WeightedVoronoiTest, DominatedSiteHasEmptyCell) {
  // A heavily penalised site coincident in area with a light one gets no
  // samples at all.
  const std::vector<WeightedSite> ws = {
      MultiplicativeSite({50, 50}, 1.0),
      MultiplicativeSite({50.5, 50}, 50.0)};
  const auto cells = DenseCells(ws, 64);
  EXPECT_FALSE(cells[0].empty);
  EXPECT_TRUE(cells[1].empty);
  // Empty cells carry the sentinel invalid Rect so downstream consumers
  // can never mistake them for a real (even degenerate) region.
  EXPECT_TRUE(cells[1].mbr.Empty());
  EXPECT_TRUE(cells[1].hull.Empty());
  EXPECT_TRUE(cells[1].cover.empty());
}

}  // namespace
}  // namespace movd
