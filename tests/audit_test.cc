// Tests for the invariant-audit subsystem (src/audit, DESIGN.md §7):
// every auditor must accept clean structures, and must pinpoint — with the
// right AuditKind and witness — a deliberately injected corruption.
#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/audit_delaunay.h"
#include "audit/audit_overlay.h"
#include "audit/audit_polygon.h"
#include "audit/audit_voronoi.h"
#include "audit/audit_weighted.h"
#include "core/molq.h"
#include "model/movd_model.h"
#include "core/overlap.h"
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

// ---------------------------------------------------------------------------
// AuditPolygon / AuditConvexPolygon

TEST(AuditPolygonTest, AcceptsCleanSquare) {
  const Polygon square({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const AuditReport report = AuditPolygon(square);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks(), 0u);
}

TEST(AuditPolygonTest, DetectsBowtieSelfIntersection) {
  // Edges (0,0)->(2,2) and (2,0)->(0,2) properly cross at (1,1).
  const Polygon bowtie({{0, 0}, {2, 2}, {2, 0}, {0, 2}});
  const AuditReport report = AuditPolygon(bowtie);
  EXPECT_GE(report.CountKind(AuditKind::kPolygonSelfIntersection), 1u)
      << report.Summary();
}

// Polygon's constructor dedups and normalises to CCW, so orientation and
// duplicate corruptions can only enter through the trusted-ring path.
TEST(AuditPolygonTest, DetectsClockwiseRing) {
  const ConvexPolygon cw = ConvexPolygon::FromTrustedRing(
      {{0, 0}, {0, 10}, {10, 10}, {10, 0}});
  const AuditReport report = AuditConvexPolygon(cw);
  EXPECT_GE(report.CountKind(AuditKind::kPolygonOrientation), 1u)
      << report.Summary();
}

TEST(AuditPolygonTest, DetectsConsecutiveDuplicate) {
  const ConvexPolygon dup = ConvexPolygon::FromTrustedRing(
      {{0, 0}, {10, 0}, {10, 0}, {10, 10}, {0, 10}});
  const AuditReport report = AuditConvexPolygon(dup);
  EXPECT_GE(report.CountKind(AuditKind::kPolygonDuplicateVertex), 1u)
      << report.Summary();
}

TEST(AuditPolygonTest, AcceptsWeaklySimplePinchRing) {
  // Two unit squares joined at the pinch vertex (1,1): non-adjacent edges
  // touch at a point but never cross. Grid-dominance covers legitimately
  // produce such rings.
  const Polygon pinch({{0, 0}, {1, 0}, {1, 1}, {2, 1},
                       {2, 2}, {1, 2}, {1, 1}, {0, 1}});
  const AuditReport report = AuditPolygon(pinch);
  EXPECT_EQ(report.CountKind(AuditKind::kPolygonSelfIntersection), 0u)
      << report.Summary();
}

TEST(AuditConvexPolygonTest, DetectsConcaveDent) {
  const ConvexPolygon dented = ConvexPolygon::FromTrustedRing(
      {{0, 0}, {10, 0}, {5, 3}, {10, 10}, {0, 10}});
  const AuditReport report = AuditConvexPolygon(dented);
  EXPECT_GE(report.CountKind(AuditKind::kPolygonNotConvex), 1u)
      << report.Summary();
}

// ---------------------------------------------------------------------------
// AuditDelaunay

TEST(AuditDelaunayTest, AcceptsCleanTriangulation) {
  const Delaunay dt(RandomPoints(60, 11));
  const AuditReport report = AuditDelaunay(dt);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks(), 0u);
}

TEST(AuditDelaunayTest, AcceptsCollinearBoundaryChains) {
  // Points exactly on one line of the bounding box: the hull edge between
  // the extreme corners is subdivided by the triangulation.
  std::vector<Point> pts = RandomPoints(20, 12);
  for (int i = 0; i < 5; ++i) pts.push_back({20.0 * i + 5.0, 0.0});
  const Delaunay dt(pts);
  const AuditReport report = AuditDelaunay(dt);
  EXPECT_EQ(report.CountKind(AuditKind::kDelaunayHullEdge), 0u)
      << report.Summary();
}

// The quad (0,0) (1,0) (1,1.2) (0,1): diagonal (1)-(3) is Delaunay,
// diagonal (0)-(2) is not — each of its triangles' circumcircles contains
// the opposite vertex.
std::vector<Point> QuadPoints() {
  return {{0, 0}, {1, 0}, {1, 1.2}, {0, 1}};
}

TEST(AuditDelaunayTest, AcceptsCorrectDiagonal) {
  // Triangles (0,1,3) and (1,2,3); shared edge (1,3).
  const std::vector<Delaunay::Triangle> tris = {
      {{0, 1, 3}, {1, -1, -1}},
      {{1, 2, 3}, {-1, 0, -1}},
  };
  const AuditReport report = AuditDelaunayTriangles(QuadPoints(), 4, tris);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AuditDelaunayTest, DetectsFlippedDiagonal) {
  // Triangles (0,1,2) and (0,2,3): the wrong diagonal (0)-(2). Vertex 3
  // sits inside circum(0,1,2) and vertex 1 inside circum(0,2,3).
  const std::vector<Delaunay::Triangle> tris = {
      {{0, 1, 2}, {-1, 1, -1}},
      {{0, 2, 3}, {-1, -1, 0}},
  };
  const AuditReport report =
      AuditDelaunayTriangles(QuadPoints(), 4, tris);
  ASSERT_EQ(report.CountKind(AuditKind::kDelaunayCircumcircle), 2u)
      << report.Summary();
  // The witness pinpoints the offending (triangle, point) pairs.
  std::vector<std::pair<int64_t, int64_t>> offenders;
  for (const AuditViolation& v : report.violations()) {
    if (v.kind == AuditKind::kDelaunayCircumcircle) {
      ASSERT_EQ(v.indices.size(), 2u);
      offenders.emplace_back(v.indices[0], v.indices[1]);
    }
  }
  std::sort(offenders.begin(), offenders.end());
  EXPECT_EQ(offenders[0], std::make_pair(int64_t{0}, int64_t{3}));
  EXPECT_EQ(offenders[1], std::make_pair(int64_t{1}, int64_t{1}));
}

TEST(AuditDelaunayTest, DetectsClockwiseTriangle) {
  const std::vector<Delaunay::Triangle> tris = {
      {{1, 0, 3}, {1, -1, -1}},  // (0,1,3) with two vertices swapped
      {{1, 2, 3}, {-1, 0, -1}},
  };
  const AuditReport report = AuditDelaunayTriangles(QuadPoints(), 4, tris);
  EXPECT_GE(report.CountKind(AuditKind::kDelaunayOrientation), 1u)
      << report.Summary();
}

TEST(AuditDelaunayTest, DetectsBrokenNeighborLink) {
  const std::vector<Delaunay::Triangle> tris = {
      {{0, 1, 3}, {1, -1, -1}},
      {{1, 2, 3}, {-1, -1, -1}},  // does not point back across (1,3)
  };
  const AuditReport report = AuditDelaunayTriangles(QuadPoints(), 4, tris);
  EXPECT_GE(report.CountKind(AuditKind::kDelaunayNeighborSymmetry), 1u)
      << report.Summary();
}

// ---------------------------------------------------------------------------
// AuditVoronoi

// A hand-built 2x2 diagram whose cells are exact 50x50 squares.
std::vector<Point> SquareSites() {
  return {{25, 25}, {75, 25}, {25, 75}, {75, 75}};
}

std::vector<VoronoiCell> SquareCells() {
  std::vector<VoronoiCell> cells(4);
  const auto ring = [](double x0, double y0) {
    return ConvexPolygon::FromTrustedRing(
        {{x0, y0}, {x0 + 50, y0}, {x0 + 50, y0 + 50}, {x0, y0 + 50}});
  };
  cells[0] = {0, ring(0, 0)};
  cells[1] = {1, ring(50, 0)};
  cells[2] = {2, ring(0, 50)};
  cells[3] = {3, ring(50, 50)};
  return cells;
}

TEST(AuditVoronoiTest, AcceptsCleanDiagram) {
  const auto vd = VoronoiDiagram::Build(RandomPoints(40, 21), kBounds);
  const AuditReport report = AuditVoronoi(vd);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks(), 0u);
}

TEST(AuditVoronoiTest, AcceptsHandBuiltSquares) {
  const AuditReport report =
      AuditVoronoiCells(SquareSites(), SquareCells(), kBounds);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AuditVoronoiTest, DetectsPerturbedVertex) {
  auto cells = SquareCells();
  // Pull cell 0's corner (50,50) to (60,60): its interior now overlaps
  // its neighbours and the areas no longer tile the bounds.
  cells[0].region = ConvexPolygon::FromTrustedRing(
      {{0, 0}, {50, 0}, {60, 60}, {0, 50}});
  const AuditReport report =
      AuditVoronoiCells(SquareSites(), cells, kBounds);
  EXPECT_GE(report.CountKind(AuditKind::kVoronoiCellOverlap), 1u)
      << report.Summary();
  EXPECT_GE(report.CountKind(AuditKind::kVoronoiCoverage), 1u)
      << report.Summary();
}

TEST(AuditVoronoiTest, DetectsVertexOutsideBounds) {
  auto cells = SquareCells();
  cells[3].region = ConvexPolygon::FromTrustedRing(
      {{50, 50}, {100, 50}, {110, 110}, {50, 100}});
  const AuditReport report =
      AuditVoronoiCells(SquareSites(), cells, kBounds);
  EXPECT_GE(report.CountKind(AuditKind::kVoronoiVertexOutOfBounds), 1u)
      << report.Summary();
}

TEST(AuditVoronoiTest, DetectsSwappedCells) {
  auto cells = SquareCells();
  std::swap(cells[0].region, cells[1].region);
  const AuditReport report =
      AuditVoronoiCells(SquareSites(), cells, kBounds);
  EXPECT_GE(report.CountKind(AuditKind::kVoronoiSiteNotInCell), 2u)
      << report.Summary();
}

// ---------------------------------------------------------------------------
// AuditWeightedCells

std::vector<WeightedSite> RandomWeightedSites(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedSite> sites;
  for (const Point& p : RandomPoints(n, seed)) {
    sites.push_back(MultiplicativeSite(p, rng.Uniform(0.5, 2.0)));
  }
  return sites;
}

constexpr int kResolution = 32;

// Dense cells through the WeightedOptions dispatch (direct
// ApproximateWeightedVoronoi calls are lint-rejected); these audits assert
// the dense sampler's invariants, so the method is pinned.
std::vector<WeightedCellApprox> DenseWeightedCells(
    const std::vector<WeightedSite>& sites) {
  WeightedOptions opts;
  opts.method = WeightedMethod::kDenseGrid;
  opts.resolution = kResolution;
  return BuildWeightedCells(sites, kBounds, opts);
}

TEST(AuditWeightedTest, AcceptsCleanApproximation) {
  const auto sites = RandomWeightedSites(8, 31);
  const auto cells = DenseWeightedCells(sites);
  const AuditReport report =
      AuditWeightedCells(sites, cells, kBounds, kResolution);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks(), 0u);
}

TEST(AuditWeightedTest, DetectsHullVertexOutsideDominanceRegion) {
  const auto sites = RandomWeightedSites(8, 31);
  auto cells = DenseWeightedCells(sites);
  // Move one hull vertex of a non-empty cell onto a DIFFERENT generator's
  // location: the weighted distance there is exactly zero for that
  // generator, so the dominance re-check must attribute it elsewhere.
  size_t victim = cells.size(), other = cells.size();
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].empty || cells[i].hull.Empty()) continue;
    if (victim == cells.size()) {
      victim = i;
    } else if (other == cells.size()) {
      other = i;
    }
  }
  ASSERT_LT(victim, cells.size());
  ASSERT_LT(other, cells.size());
  std::vector<Point> ring = cells[victim].hull.vertices();
  ring[0] = sites[other].location;
  cells[victim].hull = Polygon(std::move(ring));
  cells[victim].mbr.Expand(sites[other].location);  // keep the MBR honest
  const AuditReport report =
      AuditWeightedCells(sites, cells, kBounds, kResolution);
  EXPECT_GE(report.CountKind(AuditKind::kWeightedDominance), 1u)
      << report.Summary();
  // The witness names the tampered cell.
  bool found = false;
  for (const AuditViolation& v : report.violations()) {
    if (v.kind == AuditKind::kWeightedDominance && !v.indices.empty() &&
        v.indices[0] == static_cast<int64_t>(victim)) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.Summary();
}

TEST(AuditWeightedTest, DetectsSampleCountTampering) {
  const auto sites = RandomWeightedSites(8, 31);
  auto cells = DenseWeightedCells(sites);
  for (auto& cell : cells) {
    if (!cell.empty) {
      cell.sample_count += 5;
      break;
    }
  }
  const AuditReport report =
      AuditWeightedCells(sites, cells, kBounds, kResolution);
  EXPECT_GE(report.CountKind(AuditKind::kWeightedSampleCount), 1u)
      << report.Summary();
}

TEST(AuditWeightedTest, DetectsEmptyFlagMismatch) {
  const auto sites = RandomWeightedSites(8, 31);
  auto cells = DenseWeightedCells(sites);
  for (auto& cell : cells) {
    if (!cell.empty) {
      cell.empty = true;  // still carries samples, hull, cover
      break;
    }
  }
  const AuditReport report =
      AuditWeightedCells(sites, cells, kBounds, kResolution);
  EXPECT_GE(report.CountKind(AuditKind::kWeightedEmptyFlag), 1u)
      << report.Summary();
}

// ---------------------------------------------------------------------------
// AuditMovdOverlay

// Basic MOVDs: set 0 from the 2x2 square diagram, set 1 a single site
// owning the whole bounds.
struct OverlayFixture {
  Movd a, b, result;
  std::vector<Movd> inputs;
};

OverlayFixture BuildOverlay(BoundaryMode mode) {
  OverlayFixture f;
  const auto vd_a = VoronoiDiagram::Build(SquareSites(), kBounds);
  f.a = MovdFromVoronoi(vd_a, 0, {0, 1, 2, 3});
  const auto vd_b = VoronoiDiagram::Build({{50, 50}}, kBounds);
  f.b = MovdFromVoronoi(vd_b, 1, {0});
  f.inputs = {f.a, f.b};
  f.result = OverlapAll(f.inputs, mode);
  return f;
}

TEST(AuditOverlayTest, AcceptsCleanOverlapBothModes) {
  for (const auto mode : {BoundaryMode::kRealRegion, BoundaryMode::kMbr}) {
    const OverlayFixture f = BuildOverlay(mode);
    ASSERT_EQ(f.result.ovrs.size(), 4u);
    const AuditReport report =
        AuditMovdOverlay(f.result, f.inputs, mode, kBounds);
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_GT(report.checks(), 0u);
  }
}

TEST(AuditOverlayTest, DetectsPoiOrderCorruption) {
  OverlayFixture f = BuildOverlay(BoundaryMode::kRealRegion);
  ASSERT_GE(f.result.ovrs[0].pois.size(), 2u);
  std::swap(f.result.ovrs[0].pois[0], f.result.ovrs[0].pois[1]);
  const AuditReport report = AuditMovdOverlay(
      f.result, f.inputs, BoundaryMode::kRealRegion, kBounds);
  EXPECT_GE(report.CountKind(AuditKind::kOverlayPoiOrder), 1u)
      << report.Summary();
}

TEST(AuditOverlayTest, DetectsMbrEscapingSearchSpace) {
  OverlayFixture f = BuildOverlay(BoundaryMode::kMbr);
  f.result.ovrs[0].mbr.Expand({150, 150});
  const AuditReport report =
      AuditMovdOverlay(f.result, f.inputs, BoundaryMode::kMbr, kBounds);
  EXPECT_GE(report.CountKind(AuditKind::kOverlayMbr), 1u)
      << report.Summary();
}

TEST(AuditOverlayTest, DetectsRegionLeakingOutsideSource) {
  OverlayFixture f = BuildOverlay(BoundaryMode::kRealRegion);
  // Find the OVR descending from set-0 cell 0 ([0,50]^2) and translate its
  // region into a sibling cell's territory; keep its own MBR consistent so
  // only the source-containment invariant can catch it.
  size_t idx = f.result.ovrs.size();
  for (size_t i = 0; i < f.result.ovrs.size(); ++i) {
    const auto& pois = f.result.ovrs[i].pois;
    if (!pois.empty() && pois[0].set == 0 && pois[0].object == 0) idx = i;
  }
  ASSERT_LT(idx, f.result.ovrs.size());
  Ovr& ovr = f.result.ovrs[idx];
  std::vector<ConvexPolygon> moved;
  for (const ConvexPolygon& piece : ovr.region.pieces()) {
    std::vector<Point> ring = piece.vertices();
    for (Point& p : ring) p = p + Point(50, 0);
    moved.push_back(ConvexPolygon::FromTrustedRing(std::move(ring)));
  }
  ovr.region = Region::FromPieces(std::move(moved));
  ovr.mbr = ovr.region.Bbox();
  const AuditReport report = AuditMovdOverlay(
      f.result, f.inputs, BoundaryMode::kRealRegion, kBounds);
  EXPECT_GE(report.CountKind(AuditKind::kOverlaySource), 1u)
      << report.Summary();
}

TEST(AuditOverlayTest, DetectsRepeatedGroup) {
  // A copy of an OVR is consistent with every source on its own; only the
  // one-OVR-per-group invariant can catch it.
  for (const auto mode : {BoundaryMode::kRealRegion, BoundaryMode::kMbr}) {
    OverlayFixture f = BuildOverlay(mode);
    ASSERT_TRUE(AuditUniqueGroups(f.result).ok());
    f.result.ovrs.push_back(f.result.ovrs[1]);
    const AuditReport report =
        AuditMovdOverlay(f.result, f.inputs, mode, kBounds);
    ASSERT_EQ(report.violations().size(), 1u) << report.Summary();
    const AuditViolation& v = report.violations()[0];
    EXPECT_EQ(v.kind, AuditKind::kOverlayRepeatedGroup);
    EXPECT_EQ(v.indices, (std::vector<int64_t>{1, 4}));
    EXPECT_STREQ(AuditKindName(v.kind), "overlay-repeated-group");
  }
}

// ---------------------------------------------------------------------------
// Clean end-to-end pipelines under MolqOptions::audit

MolqQuery TwoSetQuery(uint64_t seed, bool weighted) {
  Rng rng(seed * 977 + 5);
  MolqQuery query;
  for (int s = 0; s < 2; ++s) {
    ObjectSet set;
    set.name = s == 0 ? "alpha" : "beta";
    for (const Point& p : RandomPoints(24, seed * 7 + s)) {
      SpatialObject obj;
      obj.location = p;
      obj.object_weight = weighted ? rng.Uniform(0.5, 2.0) : 1.0;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

class AuditPipelineTest
    : public ::testing::TestWithParam<std::tuple<MolqAlgorithm, int>> {};

TEST_P(AuditPipelineTest, CleanPipelineReportsNoViolations) {
  const auto [algorithm, threads] = GetParam();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const bool weighted : {false, true}) {
      MolqOptions options;
      options.algorithm = algorithm;
      options.exec.audit = true;
      options.exec.threads = threads;
      options.exec.weighted_grid_resolution = 48;
      const MolqResult result =
          SolveMolq(TwoSetQuery(seed, weighted), kBounds, options);
      EXPECT_GT(result.audit.checks(), 0u);
      EXPECT_TRUE(result.audit.ok())
          << "seed " << seed << " weighted " << weighted << ": "
          << result.audit.Messages().front();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AuditPipelineTest,
    ::testing::Combine(::testing::Values(MolqAlgorithm::kRrb,
                                         MolqAlgorithm::kMbrb),
                       ::testing::Values(1, 4)));

TEST(AuditPipelineTest, AuditOffCollectsNothing) {
  MolqOptions options;
  options.exec.audit = false;
  const MolqResult result =
      SolveMolq(TwoSetQuery(1, false), kBounds, options);
  EXPECT_EQ(result.audit.checks(), 0u);
  EXPECT_TRUE(result.audit.ok());
}

}  // namespace
}  // namespace movd
