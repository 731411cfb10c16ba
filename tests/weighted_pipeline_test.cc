// Focused tests of the weighted-diagram pipeline: tight contour covers vs
// MBR covers, and end-to-end behaviour with per-object weights.

#include <gtest/gtest.h>

#include "audit/audit_weighted.h"
#include "core/grid_scan.h"
#include "core/molq.h"
#include "core/overlap.h"
#include "core/weighted_distance.h"
#include "geom/gridcontour.h"
#include "util/rng.h"
#include "voronoi/weighted.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

MolqQuery WeightedQuery(uint64_t seed, int num_sets = 2) {
  Rng rng(seed);
  MolqQuery query;
  for (int s = 0; s < num_sets; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int i = 0; i < 6; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(10, 90), rng.Uniform(10, 90)};
      obj.object_weight = rng.Uniform(0.5, 2.0);  // forces weighted path
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

TEST(WeightedPipelineTest, ContourCoversAreTighterThanMbrs) {
  const MolqQuery q = WeightedQuery(1101);
  const Movd a = BuildBasicMovd(q, 0, kBounds, 96);
  const Movd b = BuildBasicMovd(q, 1, kBounds, 96);
  // Every weighted OVR's region is inside its MBR and no larger.
  double region_area = 0.0, mbr_area = 0.0;
  for (const Movd* m : {&a, &b}) {
    for (const Ovr& ovr : m->ovrs) {
      EXPECT_FALSE(ovr.region.Empty());
      EXPECT_LE(ovr.region.Area(), ovr.mbr.Area() + 1e-9);
      region_area += ovr.region.Area();
      mbr_area += ovr.mbr.Area();
    }
  }
  EXPECT_LT(region_area, mbr_area);
  // RRB on the tight covers produces no more OVRs than MBRB.
  const Movd rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd mbrb = Overlap(a, b, BoundaryMode::kMbr);
  EXPECT_LE(rrb.ovrs.size(), mbrb.ovrs.size());
  EXPECT_GT(rrb.ovrs.size(), 0u);
}

TEST(WeightedPipelineTest, CoversRemainConservative) {
  // Conservativeness is what guarantees correctness: every location's
  // true per-type winner must appear in some OVR covering that location.
  const MolqQuery q = WeightedQuery(1102);
  const Movd basic = BuildBasicMovd(q, 0, kBounds, 96);
  Rng rng(1103);
  for (int trial = 0; trial < 200; ++trial) {
    const Point probe{rng.Uniform(1, 99), rng.Uniform(1, 99)};
    // True winner by direct weighted-distance evaluation.
    const auto group = ArgMinGroup(q, probe);
    bool covered = false;
    for (const Ovr& ovr : basic.ovrs) {
      if (ovr.pois[0].object == group[0] && ovr.region.Contains(probe)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "probe (" << probe.x << "," << probe.y << ")";
  }
}

TEST(WeightedPipelineTest, PinchedCoverRingKeepsItsExactArea) {
  // A 3x3 block without its centre and its top-right cell, on a unit
  // lattice: the hole touches the outside at one vertex, where the cover
  // ring meets itself. The region must be the ring itself, not its MBR.
  std::vector<uint8_t> mask(25, 0);
  for (const int cell : {6, 7, 8, 11, 13, 16, 17}) mask[cell] = 1;
  WeightedCellApprox cell;
  cell.site = 0;
  cell.empty = false;
  cell.cover = ExtractOuterContours(mask, 5, 5, Rect(0, 0, 5, 5));
  ASSERT_EQ(cell.cover.size(), 1u);
  cell.mbr = cell.cover[0].Bbox();
  const Movd movd = MovdFromWeightedApprox({cell}, 0, {0});
  ASSERT_EQ(movd.ovrs.size(), 1u);
  EXPECT_EQ(movd.ovrs[0].region.Area(), 7.0);
  EXPECT_EQ(movd.ovrs[0].mbr.Area(), 9.0);
  EXPECT_FALSE(movd.ovrs[0].region.Contains({2.5, 2.5}));  // the hole
}

// Per-set generators exactly as BuildBasicMovd derives them.
std::vector<std::vector<WeightedSite>> SitesPerSet(const MolqQuery& q) {
  std::vector<std::vector<WeightedSite>> out;
  for (size_t s = 0; s < q.sets.size(); ++s) {
    std::vector<WeightedSite> sites;
    for (const SpatialObject& obj : q.sets[s].objects) {
      const FermatWeberTerm term = DecomposeWeightedDistance(
          obj, q.type_function, q.ObjectFunction(s));
      sites.push_back({obj.location, term.fw_weight, term.offset});
    }
    out.push_back(std::move(sites));
  }
  return out;
}

// Where a case's weighted basic MOVDs come from.
enum class Basics { kBuilder, kDenseOracle };

struct CoverCase {
  uint64_t seed;
  int num_sets;
  Basics basics;
};

class CoverContainmentTest : public ::testing::TestWithParam<CoverCase> {};

TEST_P(CoverContainmentTest, OwnerGroupOfEverySampleHasACoveringOvr) {
  // End to end through the rectangle covers and the RRB overlap: at every
  // sample, the group of per-set owners (BestWeightedSite, the library's
  // tie rule) must be the pois of an OVR whose region contains the sample.
  const CoverCase c = GetParam();
  const MolqQuery q = WeightedQuery(c.seed, c.num_sets);
  const auto sites = SitesPerSet(q);
  std::vector<Movd> basic;
  for (int32_t s = 0; s < c.num_sets; ++s) {
    if (c.basics == Basics::kDenseOracle) {
      std::vector<int32_t> ids(sites[s].size());
      for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
      basic.push_back(MovdFromWeightedApprox(
          ApproximateWeightedVoronoi(sites[s], kBounds, 64), s, ids));
    } else {
      basic.push_back(BuildBasicMovd(q, s, kBounds, 64));
    }
  }
  const Movd movd = OverlapAll(basic, BoundaryMode::kRealRegion);
  constexpr int kSamples = 64;
  int uncovered = 0;
  for (int iy = 0; iy < kSamples; ++iy) {
    for (int ix = 0; ix < kSamples; ++ix) {
      const Point p{kBounds.min_x + (ix + 0.5) * kBounds.Width() / kSamples,
                    kBounds.min_y + (iy + 0.5) * kBounds.Height() / kSamples};
      std::vector<PoiRef> group;
      for (int32_t s = 0; s < c.num_sets; ++s) {
        group.push_back(
            {s, static_cast<int32_t>(BestWeightedSite(p, sites[s]))});
      }
      bool covered = false;
      for (const Ovr& ovr : movd.ovrs) {
        if (ovr.pois == group && ovr.region.Contains(p)) {
          covered = true;
          break;
        }
      }
      if (!covered && ++uncovered <= 5) {
        ADD_FAILURE() << "sample (" << p.x << "," << p.y << ") uncovered";
      }
    }
  }
  EXPECT_EQ(uncovered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    SetsAndMethods, CoverContainmentTest,
    ::testing::Values(CoverCase{1401, 2, Basics::kBuilder},
                      CoverCase{1401, 2, Basics::kDenseOracle},
                      CoverCase{1402, 3, Basics::kBuilder},
                      CoverCase{1402, 3, Basics::kDenseOracle}));

class WeightedAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedAgreementTest, RrbOnWeightedDiagramsMatchesSscAndGrid) {
  const MolqQuery q = WeightedQuery(GetParam());
  MolqOptions opts;
  opts.epsilon = 1e-6;
  opts.exec.weighted_grid_resolution = 96;
  opts.algorithm = MolqAlgorithm::kSsc;
  const auto ssc = SolveMolq(q, kBounds, opts);
  opts.algorithm = MolqAlgorithm::kRrb;
  const auto rrb = SolveMolq(q, kBounds, opts);
  opts.algorithm = MolqAlgorithm::kMbrb;
  const auto mbrb = SolveMolq(q, kBounds, opts);
  const double tol = 1e-5 * ssc.cost + 1e-9;
  EXPECT_NEAR(rrb.cost, ssc.cost, tol);
  EXPECT_NEAR(mbrb.cost, ssc.cost, tol);
  EXPECT_LE(rrb.cost, GridScanMolq(q, kBounds, 50).cost + tol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedAgreementTest,
                         ::testing::Values(1111, 1112, 1113, 1114, 1115));

}  // namespace
}  // namespace movd
