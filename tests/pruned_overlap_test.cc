#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/grid_scan.h"
#include "core/molq.h"
#include "core/pruned_overlap.h"
#include "core/weighted_distance.h"
#include "movd_test_util.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

MolqQuery RandomQuery(const std::vector<size_t>& sizes, uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    const double type_weight = rng.Uniform(0.5, 10.0);
    for (size_t i = 0; i < sizes[s]; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      obj.type_weight = type_weight;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

// Per-object weights route every set through the weighted diagram.
MolqQuery WithObjectWeights(MolqQuery query, uint64_t seed) {
  Rng rng(seed);
  for (ObjectSet& set : query.sets) {
    for (SpatialObject& obj : set.objects) {
      obj.object_weight = rng.Uniform(0.5, 2.5);
    }
  }
  return query;
}

// SolveMolq (always pruned) against the unpruned staged pipeline, RRB and
// MBRB, at every thread count in `threads`.
void ExpectPrunedSolveMatchesUnpruned(const MolqQuery& q,
                                      const std::vector<int>& threads,
                                      double epsilon) {
  for (const MolqAlgorithm algo :
       {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
    for (const int t : threads) {
      SCOPED_TRACE(::testing::Message()
                   << (algo == MolqAlgorithm::kRrb ? "rrb" : "mbrb")
                   << " threads=" << t);
      MolqOptions opts;
      opts.algorithm = algo;
      opts.epsilon = epsilon;
      opts.exec.threads = t;
      ExpectSameAnswer(SolveStagedUnpruned(q, kBounds, opts),
                       SolveMolq(q, kBounds, opts));
    }
  }
}

TEST(SeedUpperBoundTest, UpperBoundsTheOptimum) {
  const MolqQuery q = RandomQuery({6, 6, 6}, 301);
  const double seed = SeedUpperBound(q, kBounds);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto exact = SolveMolq(q, kBounds, opts);
  EXPECT_GE(seed, exact.cost);
  // And it is a real MWGD value, so the fine grid scan can only be better
  // or equal.
  EXPECT_LE(GridScanMolq(q, kBounds, 40).cost, seed + 1e-9);
}

TEST(CombinationLowerBoundTest, NeverExceedsAnyLocationCost) {
  const MolqQuery q = RandomQuery({4, 4, 4}, 302);
  Rng rng(303);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PoiRef> pois;
    for (int32_t s = 0; s < 3; ++s) {
      pois.push_back({s, static_cast<int32_t>(rng.NextBelow(4))});
    }
    const double lb = CombinationLowerBound(q, pois);
    for (int probe = 0; probe < 10; ++probe) {
      const Point l{rng.Uniform(0, 100), rng.Uniform(0, 100)};
      EXPECT_LE(lb, WeightedGroupDistance(q, l, pois) + 1e-9);
    }
  }
}

TEST(CombinationLowerBoundTest, MonotoneUnderExtension) {
  // Adding a type to a combination can only raise the bound (this is what
  // justifies pruning mid-chain).
  const MolqQuery q = RandomQuery({4, 4, 4}, 304);
  Rng rng(305);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<PoiRef> two = {{0, static_cast<int32_t>(rng.NextBelow(4))},
                               {1, static_cast<int32_t>(rng.NextBelow(4))}};
    std::vector<PoiRef> three = two;
    three.push_back({2, static_cast<int32_t>(rng.NextBelow(4))});
    EXPECT_LE(CombinationLowerBound(q, two),
              CombinationLowerBound(q, three) + 1e-12);
  }
}

TEST(CombinationBoundTest, PairDecisionMatchesTheLowerBound) {
  // Random sorted poi lists over 5 sets, overlapping ones included, under
  // both type functions (the additive one gives non-zero offsets, whose
  // summation order the pair test must reproduce).
  size_t pruned = 0;
  size_t kept = 0;
  for (const WeightFunctionKind fn :
       {WeightFunctionKind::kMultiplicative, WeightFunctionKind::kAdditive}) {
    MolqQuery q = WithObjectWeights(RandomQuery({6, 6, 6, 6, 6}, 341), 342);
    q.type_function = fn;
    const CombinationBound bound(q, kBounds, 1e-3);
    ASSERT_LT(bound.threshold(), std::numeric_limits<double>::infinity());
    Rng rng(343);
    const auto random_list = [&] {
      std::vector<PoiRef> list;
      for (int32_t s = 0; s < 5; ++s) {
        if (rng.NextBelow(2) == 0) {
          list.push_back({s, static_cast<int32_t>(rng.NextBelow(6))});
        }
      }
      return list;
    };
    for (int trial = 0; trial < 2000; ++trial) {
      const std::vector<PoiRef> x = random_list();
      const std::vector<PoiRef> y =
          trial % 4 == 0 ? MergePois(x, random_list()) : random_list();
      const bool want =
          CombinationLowerBound(q, MergePois(x, y)) > bound.threshold();
      EXPECT_EQ(bound.Prunes(x, y), want) << "trial " << trial;
      EXPECT_EQ(bound.Prunes(y, x), want) << "trial " << trial;
      ++(want ? pruned : kept);
    }
  }
  // Both outcomes occur, so the equality above is not vacuous.
  EXPECT_GT(pruned, 100u);
  EXPECT_GT(kept, 100u);
}

TEST(CombinationBoundTest, ThresholdCarriesEpsilonAndRoundingSlack) {
  const MolqQuery q = RandomQuery({5, 5, 5}, 344);
  const CombinationBound bound(q, kBounds, 1e-3);
  EXPECT_EQ(Bits(bound.threshold()),
            Bits((1.0 + 1e-3) * SeedUpperBound(q, kBounds) * (1.0 + 0x1p-40)));
}

TEST(CombinationBoundTest, NegativeWeightsDisablePruning) {
  // lb and its monotonicity assume non-negative coefficients.
  MolqQuery q = RandomQuery({5, 5, 5}, 349);
  q.sets[1].objects[2].type_weight = -1.0;
  EXPECT_EQ(CombinationBound(q, kBounds, 1e-3).threshold(),
            std::numeric_limits<double>::infinity());
}

TEST(CombinationBoundTest, PrunedStepIsTheUnprunedStepMinusPrunedPairs) {
  for (const MolqQuery& q : {RandomQuery({40, 30, 25}, 345),
                             WithObjectWeights(RandomQuery({20, 15}, 346),
                                               347)}) {
    const std::vector<Movd> basic = BuildAllBasic(q, kBounds, MolqOptions{});
    const CombinationBound bound(q, kBounds, 1e-3);
    for (const BoundaryMode mode :
         {BoundaryMode::kRealRegion, BoundaryMode::kMbr}) {
      const Movd plain = Overlap(basic[0], basic[1], mode);
      OverlapStats stats;
      const Movd pruned =
          Overlap(basic[0], basic[1], mode, &stats, nullptr, 1, &bound);
      Movd expected;
      for (const Ovr& ovr : plain.ovrs) {
        if (CombinationLowerBound(q, ovr.pois) <= bound.threshold()) {
          expected.ovrs.push_back(ovr);
        }
      }
      EXPECT_GT(stats.pruned_pairs, 0u);
      EXPECT_LT(expected.ovrs.size(), plain.ovrs.size());
      EXPECT_TRUE(BitIdentical(expected, pruned));
      if (mode == BoundaryMode::kRealRegion) {
        EXPECT_EQ(stats.candidate_pairs,
                  stats.region_intersections + stats.pruned_pairs);
      } else {
        EXPECT_EQ(stats.region_intersections, 0u);
      }
    }
  }
}

class PrunedPipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunedPipelineTest, SameAnswerWithAndWithoutPruning) {
  const MolqQuery q = RandomQuery({5, 5, 4}, GetParam());
  ExpectPrunedSolveMatchesUnpruned(q, {1, 2, 4, 7}, 1e-6);
  ExpectPrunedSolveMatchesUnpruned(WithObjectWeights(q, GetParam() + 100),
                                   {1, 2, 4, 7}, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedPipelineTest,
                         ::testing::Values(311, 312, 313, 314, 315));

TEST(PrunedPipelineTest, ActuallyPrunesOnSpreadOutData) {
  // Clustered, far-apart types make most cross-cluster combinations
  // obviously hopeless.
  MolqQuery q;
  Rng rng(316);
  for (int32_t s = 0; s < 3; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (int c = 0; c < 4; ++c) {  // four shared cluster centers
      const Point center{12.5 + 25.0 * c, 12.5 + 25.0 * c};
      for (int i = 0; i < 3; ++i) {
        SpatialObject obj;
        obj.location = {center.x + rng.Uniform(-3, 3),
                        center.y + rng.Uniform(-3, 3)};
        set.objects.push_back(obj);
      }
    }
    q.sets.push_back(std::move(set));
  }
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kMbrb;
  const auto r = SolveMolq(q, kBounds, opts);
  EXPECT_GT(r.stats.overlap.pruned_pairs, 0u);
}

TEST(PrunedPipelineTest, CandidatePairsSplitIntoClippedAndPruned) {
  const MolqQuery q = RandomQuery({60, 50, 40, 30}, 348);
  MolqOptions opts;
  opts.exec.threads = 2;
  const MolqResult r = SolveMolq(q, kBounds, opts);
  const OverlapStats& s = r.stats.overlap;
  EXPECT_GT(s.pruned_pairs, 0u);
  EXPECT_EQ(s.candidate_pairs, s.region_intersections + s.pruned_pairs);
  EXPECT_EQ(r.stats.final_ovrs, r.stats.optimizer.problems);
}

// Degenerate families: each must finish without an abort and match the
// unpruned reference bit for bit in RRB and MBRB.
MolqQuery QueryAt(const std::vector<std::vector<Point>>& sets) {
  MolqQuery q;
  for (size_t s = 0; s < sets.size(); ++s) {
    ObjectSet set;
    set.name = std::string("d") += std::to_string(s);
    for (const Point& p : sets[s]) {
      SpatialObject obj;
      obj.location = p;
      set.objects.push_back(obj);
    }
    q.sets.push_back(std::move(set));
  }
  return q;
}

TEST(PrunedDegenerateTest, OptimumExactlyOnAProbeNode) {
  // One object of every set sits on the probe node (3, 2) of the 8x8 seed
  // grid, so U = 0 and every combination with a positive bound is pruned.
  const Point node{kBounds.min_x + 3 * (kBounds.Width() / 7),
                   kBounds.min_y + 2 * (kBounds.Height() / 7)};
  MolqQuery q = RandomQuery({6, 5, 4}, 351);
  for (ObjectSet& set : q.sets) set.objects[1].location = node;
  EXPECT_EQ(SeedUpperBound(q, kBounds), 0.0);
  ExpectPrunedSolveMatchesUnpruned(q, {1, 2}, 1e-3);
  ExpectPrunedSolveMatchesUnpruned(q, {1}, 0.0);
}

TEST(PrunedDegenerateTest, ObjectsOfEverySetCoincident) {
  // Every set holds the same five locations, and a sixth set is one point
  // repeated: many combinations tie at cost 0.
  Rng rng(352);
  std::vector<Point> shared;
  for (int i = 0; i < 5; ++i) {
    shared.push_back({rng.Uniform(5, 95), rng.Uniform(5, 95)});
  }
  ExpectPrunedSolveMatchesUnpruned(QueryAt({shared, shared, shared}), {1, 2},
                                   1e-3);
  const std::vector<Point> one(4, Point{40, 60});
  ExpectPrunedSolveMatchesUnpruned(QueryAt({one, one, one}), {1, 2}, 1e-3);
}

TEST(PrunedDegenerateTest, CollinearSets) {
  Rng rng(353);
  std::vector<std::vector<Point>> diagonal(3);
  std::vector<std::vector<Point>> horizontal(3);
  for (size_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 6; ++i) {
      const double t = rng.Uniform(5, 95);
      diagonal[s].push_back({t, t});
      horizontal[s].push_back({rng.Uniform(5, 95), 50});
    }
  }
  ExpectPrunedSolveMatchesUnpruned(QueryAt(diagonal), {1, 2}, 1e-3);
  ExpectPrunedSolveMatchesUnpruned(QueryAt(horizontal), {1, 2}, 1e-3);
}

TEST(PrunedDegenerateTest, EqualWeightTies) {
  // Integer-grid sets symmetric under both mirror axes of the square:
  // mirrored combinations tie exactly on cost.
  const std::vector<Point> corners = {{20, 20}, {80, 20}, {20, 80}, {80, 80}};
  const std::vector<Point> edges = {{50, 20}, {20, 50}, {80, 50}, {50, 80}};
  const std::vector<Point> center = {{50, 50}, {30, 70}, {70, 30}};
  ExpectPrunedSolveMatchesUnpruned(QueryAt({corners, edges, center}), {1, 2},
                                   1e-3);
  ExpectPrunedSolveMatchesUnpruned(QueryAt({corners, corners, edges}), {1, 2},
                                   1e-3);
}

TEST(PrunedOverlapTest, FiredTokenStopsTheStepLoop) {
  const MolqQuery q = RandomQuery({30, 30, 30}, 331);
  std::vector<Movd> basic;
  for (size_t s = 0; s < q.sets.size(); ++s) {
    basic.push_back(BuildBasicMovd(q, static_cast<int32_t>(s), kBounds, 96));
  }
  CancelToken token;
  token.Cancel();
  const CombinationBound bound(q, kBounds, 1e-3);
  OverlapStats stats;
  OverlapAll(basic, BoundaryMode::kRealRegion, &stats, &token, 2, &bound);
  EXPECT_EQ(stats.candidate_pairs, 0u);
  EXPECT_EQ(stats.pruned_pairs, 0u);
}

TEST(PrunedOverlapTest, PrunedSolveHonoursAFiredToken) {
  const MolqQuery q = RandomQuery({30, 30, 30}, 332);
  CancelToken token;
  token.Cancel();
  MolqOptions opts;
  opts.exec.cancel = &token;
  const auto r = SolveMolq(q, kBounds, opts);
  EXPECT_EQ(r.status, StatusCode::kCancelled);
  EXPECT_EQ(r.stats.overlap.candidate_pairs, 0u);
}

// Per-object weights on set `set` alone: that set routes through the
// weighted diagram, the others stay ordinary.
MolqQuery WithObjectWeightsOn(MolqQuery query, size_t set, uint64_t seed) {
  Rng rng(seed);
  for (SpatialObject& obj : query.sets[set].objects) {
    obj.object_weight = rng.Uniform(0.5, 2.5);
  }
  return query;
}

TEST(ObjectFilterTest, DroppedSitesHoldOnlyPrunedCombinations) {
  // Every combination through a dropped site has a lower bound above τ,
  // and the filter drops something on these inputs.
  const MolqQuery q = RandomQuery({120, 100, 80}, 411);
  const CombinationBound bound(q, kBounds, 1e-3);
  std::vector<VoronoiDiagram> vds;
  for (const ObjectSet& set : q.sets) {
    std::vector<Point> sites;
    for (const SpatialObject& obj : set.objects) sites.push_back(obj.location);
    vds.push_back(VoronoiDiagram::Triangulate(sites, kBounds));
  }
  const std::vector<const VoronoiDiagram*> diagrams = {&vds[0], &vds[1],
                                                       &vds[2]};
  Rng rng(412);
  size_t dropped = 0;
  for (int32_t s = 0; s < 3; ++s) {
    std::vector<uint8_t> keep;
    CombinationBound::FilterStats stats;
    bound.KeepSites(s, diagrams, &keep, &stats);
    ASSERT_EQ(keep.size(), vds[s].sites().size());
    EXPECT_EQ(stats.objects, keep.size());
    EXPECT_EQ(stats.kept, static_cast<size_t>(std::count(keep.begin(),
                                                         keep.end(), 1)));
    for (size_t k = 0; k < keep.size(); ++k) {
      if (keep[k] != 0) continue;
      ++dropped;
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<PoiRef> group;
        for (int32_t j = 0; j < 3; ++j) {
          const int32_t object =
              j == s ? vds[s].first_input()[k]
                     : static_cast<int32_t>(
                           rng.NextBelow(q.sets[j].objects.size()));
          group.push_back({j, object});
        }
        EXPECT_GT(CombinationLowerBound(q, group), bound.threshold());
      }
    }
  }
  EXPECT_GT(dropped, 0u);
}

TEST(ObjectFilterTest, KeepsEverySiteOfASingleSet) {
  // One set: no overlap step prunes, so the filter keeps every site.
  const MolqQuery one = RandomQuery({50}, 413);
  const MolqOptions opts;
  MolqResult r;
  const Movd movd = BuildMolqOverlay(one, kBounds, opts, /*prune=*/true, &r);
  EXPECT_EQ(r.stats.pruned_objects, 0u);
  EXPECT_TRUE(BitIdentical(
      BuildBasicMovd(one, 0, kBounds, opts.exec.weighted_grid_resolution),
      movd));
}

// Named *Parallel* so the TSan job's *Parallel* filter runs it. The
// filtered overlay must equal, bit for bit, the overlay the same bound
// gives over every cell: 2-5 sets, all ordinary or one weighted set, RRB
// and MBRB, at every thread count.
TEST(ObjectFilterParallelTest, FilteredOverlayIsBitIdenticalToUnfiltered) {
  const std::vector<size_t> sizes = {70, 60, 50, 40, 30};
  size_t pruned = 0;
  for (size_t num_sets = 2; num_sets <= 5; ++num_sets) {
    for (const bool weighted : {false, true}) {
      MolqQuery q = RandomQuery(
          std::vector<size_t>(sizes.begin(), sizes.begin() + num_sets),
          500 + num_sets);
      if (weighted) q = WithObjectWeightsOn(std::move(q), 1, 600 + num_sets);
      for (const MolqAlgorithm algo :
           {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
        MolqOptions opts;
        opts.algorithm = algo;
        const BoundaryMode mode = algo == MolqAlgorithm::kRrb
                                      ? BoundaryMode::kRealRegion
                                      : BoundaryMode::kMbr;
        const CombinationBound bound(q, kBounds, opts.epsilon);
        const Movd want = OverlapAll(BuildAllBasic(q, kBounds, opts), mode,
                                     nullptr, nullptr, 1, &bound);
        for (const int threads : {1, 2, 4, 7}) {
          SCOPED_TRACE(::testing::Message()
                       << num_sets << " sets, weighted " << weighted << ", "
                       << (mode == BoundaryMode::kMbr ? "mbrb" : "rrb")
                       << ", threads " << threads);
          opts.exec.threads = threads;
          MolqResult r;
          const Movd got =
              BuildMolqOverlay(q, kBounds, opts, /*prune=*/true, &r);
          ASSERT_EQ(r.status, StatusCode::kOk);
          EXPECT_TRUE(BitIdentical(want, got));
          EXPECT_EQ(r.stats.final_ovrs, want.ovrs.size());
          pruned += r.stats.pruned_objects;
        }
      }
    }
  }
  EXPECT_GT(pruned, 0u);
}

// Named OverlapParallel* so the TSan job's *Parallel* filter runs it.
TEST(OverlapParallelPrunedTest, BitIdenticalForEveryThreadCount) {
  for (const MolqQuery& q :
       {RandomQuery({60, 50, 40}, 319),
        WithObjectWeights(RandomQuery({40, 30, 25}, 317), 318)}) {
    std::vector<Movd> basic;
    for (size_t s = 0; s < q.sets.size(); ++s) {
      basic.push_back(BuildBasicMovd(q, static_cast<int32_t>(s), kBounds, 96));
    }
    const CombinationBound bound(q, kBounds, 1e-3);
    for (const BoundaryMode mode :
         {BoundaryMode::kRealRegion, BoundaryMode::kMbr}) {
      OverlapStats serial_stats;
      const Movd serial =
          OverlapAll(basic, mode, &serial_stats, nullptr, 1, &bound);
      EXPECT_GT(serial_stats.candidate_pairs, 256u);
      EXPECT_GT(serial_stats.pruned_pairs, 0u);
      for (const int threads : {1, 2, 4, 7}) {
        OverlapStats stats;
        const Movd out =
            OverlapAll(basic, mode, &stats, nullptr, threads, &bound);
        EXPECT_TRUE(BitIdentical(serial, out)) << "threads=" << threads;
        ExpectSameStats(serial_stats, stats);
      }
    }
  }
}

}  // namespace
}  // namespace movd
