// Tests of the adaptive quadtree weighted-Voronoi construction (DESIGN.md
// §11): extreme weight regimes, disconnected multiplicative cells, domain
// clipping, thread-count determinism, and the cross-method guarantee that
// adaptive covers contain every dense-grid-dominated sample.

#include <gtest/gtest.h>

#include "audit/audit_weighted.h"
#include "util/rng.h"
#include "voronoi/weighted.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

std::vector<WeightedCellApprox> Build(const std::vector<WeightedSite>& sites,
                                      int resolution, const Rect& bounds,
                                      int threads = 1) {
  WeightedOptions opts;
  opts.resolution = resolution;
  opts.threads = threads;
  return BuildWeightedCells(sites, bounds, opts);
}

TEST(EffectiveWeightedResolutionTest, RoundsUpToPowerOfTwo) {
  EXPECT_EQ(EffectiveWeightedResolution(1), 1);
  EXPECT_EQ(EffectiveWeightedResolution(2), 2);
  EXPECT_EQ(EffectiveWeightedResolution(3), 4);
  EXPECT_EQ(EffectiveWeightedResolution(100), 128);
  EXPECT_EQ(EffectiveWeightedResolution(128), 128);
  // Capped so a huge request cannot explode the quadtree depth.
  EXPECT_EQ(EffectiveWeightedResolution((1 << 14) + 5), 1 << 14);
}

TEST(BestWeightedSiteTest, TiesGoToTheLowestIndex) {
  // The probe is exactly equidistant (same multiplier, same offset), so the
  // strict-< comparison keeps the first site. This rule is a pure function
  // of the point and the sites — no grid, resolution, or method involved —
  // which is what makes dense and adaptive ownership interchangeable.
  const std::vector<WeightedSite> sites = {{{30, 50}, 2.0, 1.0},
                                           {{70, 50}, 2.0, 1.0}};
  EXPECT_EQ(BestWeightedSite({50, 50}, sites), 0u);
  // Swapping the order moves the tie, proving it is the index that breaks
  // it, not the geometry.
  const std::vector<WeightedSite> swapped = {sites[1], sites[0]};
  EXPECT_EQ(BestWeightedSite({50, 50}, swapped), 0u);
}

TEST(AdaptiveWeightedTest, ExtremeMultiplierRatiosStayConservative) {
  // Ratio 150:1 — the heavy site keeps only a speck around its own
  // location; interval classification must neither lose that speck nor
  // leak the light site's cover outside the domain.
  const std::vector<WeightedSite> sites = {{{20, 20}, 1.0, 0.0},
                                           {{80, 80}, 150.0, 0.0}};
  const auto cells = Build(sites, 128, kBounds);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_FALSE(cells[0].empty);
  EXPECT_FALSE(cells[1].empty);  // its own location is always its minimum
  EXPECT_GT(cells[0].sample_count, cells[1].sample_count);
  const AuditReport report =
      AuditAdaptiveWeightedCells(sites, cells, kBounds, 128);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AdaptiveWeightedTest, ZeroOffsetVsLargeOffsetMixes) {
  // Moderate offset: both cells survive, the boundary shifts toward the
  // handicapped site.
  const std::vector<WeightedSite> shifted = {{{30, 50}, 1.0, 0.0},
                                             {{70, 50}, 1.0, 30.0}};
  const auto both = Build(shifted, 128, kBounds);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_FALSE(both[0].empty);
  EXPECT_FALSE(both[1].empty);
  EXPECT_GT(both[0].sample_count, both[1].sample_count);
  EXPECT_TRUE(
      AuditAdaptiveWeightedCells(shifted, both, kBounds, 128).ok());

  // An offset larger than the domain diagonal dominates the site away
  // entirely: sentinel invalid MBR, no hull, no cover.
  const std::vector<WeightedSite> crushed = {{{30, 50}, 1.0, 0.0},
                                             {{70, 50}, 1.0, 500.0}};
  const auto one = Build(crushed, 128, kBounds);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_FALSE(one[0].empty);
  EXPECT_TRUE(one[1].empty);
  EXPECT_TRUE(one[1].mbr.Empty());
  EXPECT_TRUE(one[1].hull.Empty());
  EXPECT_TRUE(one[1].cover.empty());
  EXPECT_TRUE(AuditAdaptiveWeightedCells(crushed, one, kBounds, 128).ok());
}

TEST(AdaptiveWeightedTest, DisconnectedMultiplicativeCell) {
  // Collinear sites in a thin strip. Solving the 1-d dominance inequalities
  // for site 0 (weight 1) against site 1 (weight 10 at x=10) and site 2
  // (weight 2 at x=5): site 0 owns x < 10/3 and x > 100/9 — two components
  // separated by the middle site's cell. The multiplicative diagram is the
  // classic Apollonius construction where this disconnection is real, not
  // an artifact.
  const Rect strip(0, 0, 12, 0.75);
  const std::vector<WeightedSite> sites = {{{0, 0.375}, 1.0, 0.0},
                                           {{10, 0.375}, 10.0, 0.0},
                                           {{5, 0.375}, 2.0, 0.0}};
  const auto cells = Build(sites, 256, strip);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_FALSE(cells[0].empty);
  // The cover must carry both components as separate rings.
  EXPECT_GE(cells[0].cover.size(), 2u);
  // And the MBR spans across the foreign cell in the middle.
  EXPECT_LT(cells[0].mbr.min_x, 4.0);
  EXPECT_GT(cells[0].mbr.max_x, 11.0);
  const AuditReport report =
      AuditAdaptiveWeightedCells(sites, cells, strip, 256);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AdaptiveWeightedTest, CoversAndMbrsAreClippedToTheDomain) {
  // Sites hugging the border: the one-cell dilation of the cover would
  // leak outside without explicit clipping, and the MBR must follow.
  const std::vector<WeightedSite> sites = {{{0.5, 0.5}, 1.0, 0.0},
                                           {{99.5, 99.5}, 3.0, 0.0},
                                           {{0.5, 99.5}, 1.0, 20.0}};
  // The builder, and the dense-grid audit oracle.
  for (const auto& cells : {Build(sites, 64, kBounds),
                            ApproximateWeightedVoronoi(sites, kBounds, 64)}) {
    for (const WeightedCellApprox& cell : cells) {
      if (cell.empty) continue;
      EXPECT_TRUE(kBounds.Contains(cell.mbr));
      for (const Polygon& ring : cell.cover) {
        for (const Point& v : ring.vertices()) {
          EXPECT_TRUE(kBounds.Contains(v))
              << "(" << v.x << "," << v.y << ")";
        }
      }
    }
  }
}

TEST(AdaptiveWeightedTest, DeterministicAcrossThreadCounts) {
  Rng rng(77);
  std::vector<WeightedSite> sites;
  for (int i = 0; i < 12; ++i) {
    sites.push_back({{rng.Uniform(0, 100), rng.Uniform(0, 100)},
                     rng.Uniform(0.5, 4.0), rng.Uniform(0.0, 40.0)});
  }
  const auto a = Build(sites, 128, kBounds, 1);
  const auto b = Build(sites, 128, kBounds, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].empty, b[i].empty);
    EXPECT_EQ(a[i].sample_count, b[i].sample_count);
    if (a[i].empty) continue;
    // Bit-identical geometry, not merely close: the classification
    // frontier is fixed and the per-slot records concatenate in frontier
    // order, so the thread count cannot reorder anything.
    EXPECT_EQ(a[i].mbr, b[i].mbr);
    ASSERT_EQ(a[i].cover.size(), b[i].cover.size());
    for (size_t r = 0; r < a[i].cover.size(); ++r) {
      ASSERT_EQ(a[i].cover[r].vertices().size(),
                b[i].cover[r].vertices().size());
      for (size_t k = 0; k < a[i].cover[r].vertices().size(); ++k) {
        EXPECT_EQ(a[i].cover[r].vertices()[k], b[i].cover[r].vertices()[k]);
      }
    }
  }
}

TEST(AdaptiveWeightedTest, SampleCountsCoverTheLattice) {
  Rng rng(78);
  std::vector<WeightedSite> sites;
  for (int i = 0; i < 8; ++i) {
    sites.push_back({{rng.Uniform(0, 100), rng.Uniform(0, 100)},
                     rng.Uniform(0.5, 2.0), 0.0});
  }
  // Adaptive sample_count is covered leaf cells; ambiguous leaves are
  // recorded for every surviving candidate, so the sum is at least the
  // lattice size (conservative covers overlap, never undershoot).
  const auto cells = Build(sites, 100, kBounds);
  size_t total = 0;
  for (const auto& cell : cells) total += cell.sample_count;
  const size_t lattice = static_cast<size_t>(EffectiveWeightedResolution(100)) *
                         EffectiveWeightedResolution(100);
  EXPECT_GE(total, lattice);
}

// The cross-method property, 20 seeds: every dense-lattice sample the
// shared tie rule assigns to generator i lies inside adaptive cell i's
// cover. AuditAdaptiveWeightedCells replays exactly this.
class AdaptiveContainsDenseTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(AdaptiveContainsDenseTest, CoversContainDenseDominatedSamples) {
  Rng rng(GetParam());
  std::vector<WeightedSite> sites;
  const int n = 3 + static_cast<int>(GetParam() % 10);
  for (int i = 0; i < n; ++i) {
    // Mix regimes: multiplicative-only, additive-only, and affine sites in
    // one diagram, with occasional extreme multipliers.
    const double mult = (i % 4 == 3) ? rng.Uniform(20.0, 120.0)
                                     : rng.Uniform(0.5, 3.0);
    const double off = (i % 2 == 0) ? 0.0 : rng.Uniform(0.0, 60.0);
    sites.push_back({{rng.Uniform(0, 100), rng.Uniform(0, 100)}, mult, off});
  }
  const auto cells = Build(sites, 64, kBounds);
  const AuditReport report =
      AuditAdaptiveWeightedCells(sites, cells, kBounds, 64);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.CountKind(AuditKind::kWeightedCoverMiss), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveContainsDenseTest,
                         ::testing::Range<uint64_t>(9000, 9020));

// ---------------------------------------------------------------------------
// AuditAdaptiveWeightedCells corruption detection

std::vector<WeightedSite> AuditSites() {
  Rng rng(55);
  std::vector<WeightedSite> sites;
  for (int i = 0; i < 6; ++i) {
    sites.push_back({{rng.Uniform(10, 90), rng.Uniform(10, 90)},
                     rng.Uniform(0.5, 2.5), 0.0});
  }
  return sites;
}

TEST(AuditAdaptiveWeightedTest, DetectsShrunkenCover) {
  const auto sites = AuditSites();
  auto cells = Build(sites, 32, kBounds);
  // Collapse one non-empty cell's cover to a speck: dominated lattice
  // samples now fall outside every ring, which is exactly the
  // conservative-cover violation the dense replay hunts.
  for (auto& cell : cells) {
    if (cell.empty) continue;
    const Point s = sites[cell.site].location;
    cell.cover = {Polygon({{s.x, s.y},
                           {s.x + 1e-3, s.y},
                           {s.x + 1e-3, s.y + 1e-3},
                           {s.x, s.y + 1e-3}})};
    cell.mbr = cell.cover[0].Bbox();
    break;
  }
  const AuditReport report =
      AuditAdaptiveWeightedCells(sites, cells, kBounds, 32);
  EXPECT_GE(report.CountKind(AuditKind::kWeightedCoverMiss), 1u)
      << report.Summary();
}

TEST(AuditAdaptiveWeightedTest, DetectsSiteTagMismatch) {
  const auto sites = AuditSites();
  auto cells = Build(sites, 32, kBounds);
  cells[0].site = 3;
  const AuditReport report =
      AuditAdaptiveWeightedCells(sites, cells, kBounds, 32);
  EXPECT_GE(report.CountKind(AuditKind::kWeightedCellCount), 1u)
      << report.Summary();
}

TEST(AuditAdaptiveWeightedTest, DetectsEmptyFlagMismatch) {
  const auto sites = AuditSites();
  auto cells = Build(sites, 32, kBounds);
  for (auto& cell : cells) {
    if (!cell.empty) {
      cell.empty = true;  // still carries samples, cover, a valid MBR
      break;
    }
  }
  const AuditReport report =
      AuditAdaptiveWeightedCells(sites, cells, kBounds, 32);
  EXPECT_GE(report.CountKind(AuditKind::kWeightedEmptyFlag), 1u)
      << report.Summary();
}

}  // namespace
}  // namespace movd
