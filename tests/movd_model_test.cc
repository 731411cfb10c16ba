#include <algorithm>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "model/movd_model.h"
#include "core/optimizer.h"
#include "core/overlap.h"
#include "core/weighted_distance.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

TEST(MovdModelTest, IdentityMovdCoversSearchSpace) {
  const Movd id = IdentityMovd(kBounds);
  ASSERT_EQ(id.ovrs.size(), 1u);
  EXPECT_TRUE(id.ovrs[0].pois.empty());
  EXPECT_EQ(id.ovrs[0].mbr, kBounds);
  EXPECT_DOUBLE_EQ(id.ovrs[0].region.Area(), kBounds.Area());
}

TEST(MovdModelTest, MemoryBytesCountsVerticesInRrbMode) {
  Movd movd;
  Ovr ovr;
  ovr.mbr = Rect(0, 0, 10, 10);
  ovr.region = Region::FromRect(ovr.mbr);  // 4 vertices
  ovr.pois = {{0, 1}, {1, 2}};
  movd.ovrs.push_back(ovr);
  EXPECT_EQ(movd.MemoryBytes(BoundaryMode::kRealRegion),
            4 * sizeof(Point) + 2 * sizeof(PoiRef));
  EXPECT_EQ(movd.MemoryBytes(BoundaryMode::kMbr),
            2 * sizeof(Point) + 2 * sizeof(PoiRef));
  EXPECT_EQ(movd.VertexCount(), 4u);
}

TEST(MovdModelTest, FromVoronoiTagsPoisWithSetAndObject) {
  const auto vd = VoronoiDiagram::Build({{20, 20}, {80, 80}}, kBounds);
  // Map the diagram's (sorted) sites back to synthetic object ids 7 and 9.
  std::vector<int32_t> object_of_site = {7, 9};
  const Movd movd = MovdFromVoronoi(vd, /*set=*/3, object_of_site);
  ASSERT_EQ(movd.ovrs.size(), 2u);
  for (const Ovr& ovr : movd.ovrs) {
    ASSERT_EQ(ovr.pois.size(), 1u);
    EXPECT_EQ(ovr.pois[0].set, 3);
    EXPECT_TRUE(ovr.pois[0].object == 7 || ovr.pois[0].object == 9);
    EXPECT_EQ(ovr.mbr, ovr.region.Bbox());
  }
}

// The diagram collapses duplicate locations; each surviving cell must name
// the lowest object index at its location, whatever the input order.
TEST(MovdModelTest, BasicMovdMapsDuplicateLocationsToLowestObject) {
  const std::vector<Point> locations = {{70, 30}, {20, 20}, {70, 30},
                                        {20, 20}, {50, 90}, {70, 30},
                                        {50, 90}, {-0.0, 5}, {0.0, 5}};
  MolqQuery query;
  ObjectSet set;
  set.name = "t0";
  for (const Point& p : locations) {
    SpatialObject obj;
    obj.location = p;
    set.objects.push_back(obj);
  }
  query.sets.push_back(std::move(set));
  const Movd movd = BuildBasicMovd(query, 0, kBounds, 64);
  ASSERT_EQ(movd.ovrs.size(), 4u);
  std::vector<int32_t> objects;
  for (const Ovr& ovr : movd.ovrs) {
    ASSERT_EQ(ovr.pois.size(), 1u);
    const int32_t object = ovr.pois[0].object;
    objects.push_back(object);
    // No lower index shares the location.
    for (int32_t j = 0; j < object; ++j) {
      EXPECT_FALSE(locations[j] == locations[object])
          << "object " << object << " repeats object " << j;
    }
    EXPECT_TRUE(ovr.region.Contains(locations[object]));
  }
  std::sort(objects.begin(), objects.end());
  EXPECT_EQ(objects, (std::vector<int32_t>{0, 1, 4, 7}));
}

TEST(MovdModelTest, FromWeightedApproxDropsEmptyCells) {
  const std::vector<WeightedSite> sites = {
      MultiplicativeSite({50, 50}, 1.0),
      MultiplicativeSite({50.5, 50}, 100.0)};  // dominated -> empty
  WeightedOptions wopts;
  wopts.method = WeightedMethod::kDenseGrid;
  wopts.resolution = 64;
  const auto cells = BuildWeightedCells(sites, kBounds, wopts);
  EXPECT_TRUE(cells[1].mbr.Empty());  // the sentinel invalid Rect
  std::vector<int32_t> ids = {0, 1};
  const Movd movd = MovdFromWeightedApprox(cells, 0, ids);
  ASSERT_EQ(movd.ovrs.size(), 1u);  // the empty cell is not an OVR
  EXPECT_EQ(movd.ovrs[0].pois[0].object, 0);
  // The region is the conservative MBR cover.
  EXPECT_DOUBLE_EQ(movd.ovrs[0].region.Area(), movd.ovrs[0].mbr.Area());
}

TEST(MovdModelTest, FromWeightedApproxCountsPiecesAndFallbacks) {
  // An L-shaped lattice ring splits into two rectangles; a ring with a
  // slanted edge has no exact rectangle split, so its cell takes the MBR
  // fallback and the counter reports it.
  WeightedCellApprox lattice;
  lattice.site = 0;
  lattice.empty = false;
  lattice.cover = {Polygon({{0, 0}, {4, 0}, {4, 1}, {1, 1}, {1, 4}, {0, 4}})};
  lattice.mbr = Rect(0, 0, 4, 4);
  WeightedCellApprox slanted;
  slanted.site = 1;
  slanted.empty = false;
  slanted.cover = {Polygon({{10, 0}, {14, 0}, {14, 2}, {12, 4}, {10, 4}})};
  slanted.mbr = Rect(10, 0, 14, 4);
  WeightedCoverStats stats;
  const Movd movd =
      MovdFromWeightedApprox({lattice, slanted}, 0, {0, 1}, &stats);
  ASSERT_EQ(movd.ovrs.size(), 2u);
  EXPECT_EQ(movd.ovrs[0].region.pieces().size(), 2u);
  EXPECT_DOUBLE_EQ(movd.ovrs[0].region.Area(), 7.0);
  ASSERT_EQ(movd.ovrs[1].region.pieces().size(), 1u);
  EXPECT_EQ(movd.ovrs[1].region.Bbox(), slanted.mbr);
  EXPECT_DOUBLE_EQ(movd.ovrs[1].region.Area(), slanted.mbr.Area());
  EXPECT_EQ(stats.pieces, 3u);
  EXPECT_EQ(stats.mbr_fallbacks, 1u);
}

TEST(OptimizerStatsTest, CountersAddUp) {
  Rng rng(901);
  MolqQuery query;
  for (int s = 0; s < 4; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int i = 0; i < 4; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  std::vector<Movd> basic;
  for (int32_t s = 0; s < 4; ++s) {
    basic.push_back(BuildBasicMovd(query, s, kBounds, 64));
  }
  const Movd movd = OverlapAll(basic, BoundaryMode::kMbr);
  OptimizerOptions opts;
  opts.dedup_combinations = true;
  const OptimizerResult r = OptimizeMovd(query, movd, opts);
  // Every OVR is examined.
  EXPECT_EQ(r.stats.problems, movd.ovrs.size());
  // Skips and prunes cannot exceed problems examined.
  EXPECT_LE(r.stats.skipped_prefilter + r.stats.pruned_by_bound,
            r.stats.problems);
  // The winner is a real combination whose WGD at the location matches.
  EXPECT_NEAR(WeightedGroupDistance(query, r.location, r.group), r.cost,
              1e-9);
}

TEST(OptimizerDeterminismTest, WeightedTrianglesBitIdenticalAcrossThreads) {
  // Three types with their own weights: every OVR is a weighted triangle
  // solved in closed form (or by the bounded fallback), and the answer
  // must not depend on how the OVRs are spread over workers.
  Rng rng(902);
  MolqQuery query;
  for (int s = 0; s < 3; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int i = 0; i < 40; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      obj.type_weight = rng.Uniform(0.5, 4.0);
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  std::vector<Movd> basic;
  for (int32_t s = 0; s < 3; ++s) {
    basic.push_back(BuildBasicMovd(query, s, kBounds, 64));
  }
  const Movd movd = OverlapAll(basic, BoundaryMode::kRealRegion);
  OptimizerOptions opts;
  opts.exec.threads = 1;
  const OptimizerResult serial = OptimizeMovd(query, movd, opts);
  EXPECT_NEAR(WeightedGroupDistance(query, serial.location, serial.group),
              serial.cost, 1e-9 * serial.cost);
  for (const int threads : {2, 4}) {
    opts.exec.threads = threads;
    const OptimizerResult r = OptimizeMovd(query, movd, opts);
    EXPECT_EQ(r.location.x, serial.location.x) << "threads=" << threads;
    EXPECT_EQ(r.location.y, serial.location.y) << "threads=" << threads;
    EXPECT_EQ(r.cost, serial.cost) << "threads=" << threads;
    EXPECT_EQ(r.group, serial.group) << "threads=" << threads;
  }
}

TEST(MovdModelTest, OverlapPreservesPoiSortOrder) {
  Rng rng(902);
  MolqQuery query;
  for (int s = 0; s < 3; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int i = 0; i < 5; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  std::vector<Movd> basic;
  for (int32_t s = 0; s < 3; ++s) {
    basic.push_back(BuildBasicMovd(query, s, kBounds, 64));
  }
  // Fold in a scrambled order; poi lists must still come out sorted.
  const Movd out =
      OverlapAll({basic[2], basic[0], basic[1]}, BoundaryMode::kRealRegion);
  for (const Ovr& ovr : out.ovrs) {
    ASSERT_EQ(ovr.pois.size(), 3u);
    EXPECT_TRUE(std::is_sorted(ovr.pois.begin(), ovr.pois.end()));
  }
}

}  // namespace
}  // namespace movd
