#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "audit/audit_voronoi.h"
#include "util/rng.h"
#include "voronoi/delaunay.h"
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

// The dense reference construction through the WeightedOptions dispatch
// (direct ApproximateWeightedVoronoi calls are lint-rejected). These tests
// assert dense-sampler semantics — per-cell sample counts over the exact
// requested lattice — so they pin the method explicitly.
std::vector<WeightedCellApprox> DenseCells(const std::vector<WeightedSite>& ws,
                                           int resolution) {
  WeightedOptions opts;
  opts.method = WeightedMethod::kDenseGrid;
  opts.resolution = resolution;
  return BuildWeightedCells(ws, kBounds, opts);
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
