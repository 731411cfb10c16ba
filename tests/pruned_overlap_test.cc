#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/grid_scan.h"
#include "core/molq.h"
#include "core/pruned_overlap.h"
#include "core/weighted_distance.h"
#include "trace/trace.h"
#include "movd_test_util.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "voronoi/site_grid.h"

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

// Per-object weights on set `set` alone: that set routes through the
// weighted diagram, the others stay ordinary.
MolqQuery WithObjectWeightsOn(MolqQuery query, size_t set, uint64_t seed) {
  Rng rng(seed);
  for (SpatialObject& obj : query.sets[set].objects) {
    obj.object_weight = rng.Uniform(0.5, 2.5);
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

// The least brute-force MWGD over the nodes of an 8x8 grid over `space`:
// the probe grid's bound before its descent.
double ProbeGridBound(const MolqQuery& q, const Rect& space) {
  double best = std::numeric_limits<double>::infinity();
  for (int gy = 0; gy < 8; ++gy) {
    for (int gx = 0; gx < 8; ++gx) {
      const Point node{space.min_x + gx * (space.Width() / 7),
                       space.min_y + gy * (space.Height() / 7)};
      best = std::min(best, MinWeightedGroupDistance(q, node));
    }
  }
  return best;
}

TEST(CombinationBoundTest, UpperBoundBracketsTheOptimum) {
  // U is MWGD at a search-space point, so never below the optimum. For an
  // all-ordinary query every in-space object location is a candidate, so U
  // is at most the least MWGD over them; when the answer group's member
  // nearest the answer lies in the space it is among them, and U <= 2 *
  // cost. A mixed query (one weighted set) and a space that holds no
  // object price the probe grid, so U is at most its least node.
  constexpr double kEps = 1e-6;
  size_t walked = 0;
  size_t doubled = 0;
  size_t probed = 0;
  for (const uint64_t seed : {301u, 302u, 303u}) {
    for (const Rect& space :
         {kBounds, Rect(20, 20, 80, 80), Rect(96, 0, 100, 4)}) {
      for (const bool weighted : {false, true}) {
        MolqQuery q = RandomQuery({12, 10, 8}, seed);
        if (weighted) q = WithObjectWeightsOn(std::move(q), 1, seed + 50);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " space "
                                          << space.max_x << " weighted "
                                          << weighted);
        const CombinationBound bound = PipelineBound(q, space, kEps);
        const double u = bound.upper_bound();
        MolqOptions opts;
        opts.epsilon = kEps;
        const MolqResult r = SolveMolq(q, space, opts);
        ASSERT_EQ(r.status, StatusCode::kOk);
        EXPECT_EQ(Bits(r.stats.upper_bound), Bits(u));
        EXPECT_LE(r.cost / (1.0 + kEps), u * (1.0 + 0x1p-40));
        double least = std::numeric_limits<double>::infinity();
        for (const ObjectSet& set : q.sets) {
          for (const SpatialObject& obj : set.objects) {
            if (space.Contains(obj.location)) {
              least = std::min(least,
                               MinWeightedGroupDistance(q, obj.location));
            }
          }
        }
        if (weighted || least == std::numeric_limits<double>::infinity()) {
          EXPECT_EQ(bound.stats().full_evaluations, 64u);
          EXPECT_LE(u, ProbeGridBound(q, space));
          ++probed;
          continue;
        }
        EXPECT_EQ(bound.stats().full_evaluations, 0u);
        EXPECT_LE(u, least);
        ++walked;
        Point nearest = r.location;
        double nearest_d = std::numeric_limits<double>::infinity();
        for (const PoiRef& ref : r.group) {
          const Point& p = q.sets[ref.set].objects[ref.object].location;
          if (Distance(r.location, p) < nearest_d) {
            nearest_d = Distance(r.location, p);
            nearest = p;
          }
        }
        if (!space.Contains(nearest)) continue;
        EXPECT_LE(u, 2.0 * r.cost);
        ++doubled;
      }
    }
  }
  EXPECT_EQ(walked, 6u);
  EXPECT_GE(doubled, 3u);
  EXPECT_EQ(probed, 12u);
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
    const CombinationBound bound = PipelineBound(q, kBounds, 1e-3);
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
  for (const MolqQuery& q :
       {RandomQuery({5, 5, 5}, 344),
        WithObjectWeightsOn(RandomQuery({5, 5, 5}, 344), 2, 345),
        WithObjectWeights(RandomQuery({5, 5}, 344), 346)}) {
    const CombinationBound bound = PipelineBound(q, kBounds, 1e-3);
    EXPECT_EQ(Bits(bound.threshold()),
              Bits((1.0 + 1e-3) * bound.upper_bound() * (1.0 + 0x1p-40)));
  }
}

// Named *Parallel* so the TSan job's *Parallel* filter runs it. The grid
// pass fans out over the ordinary sets; U, τ, the counters and every
// set's filter must not depend on the thread count: all-ordinary, mixed
// and all-weighted queries.
TEST(CombinationBoundParallelTest, ThresholdIsThreadCountInvariant) {
  for (const MolqQuery& q :
       {RandomQuery({70, 60, 50, 40}, 361),
        WithObjectWeightsOn(RandomQuery({70, 60, 50}, 362), 1, 363),
        WithObjectWeights(RandomQuery({30, 25}, 364), 365)}) {
    const CombinationBound serial = PipelineBound(q, kBounds, 1e-3);
    ASSERT_LT(serial.threshold(), std::numeric_limits<double>::infinity());
    for (const int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE(::testing::Message() << q.sets.size() << " sets, threads "
                                        << threads);
      const CombinationBound bound = PipelineBound(q, kBounds, 1e-3, threads);
      EXPECT_EQ(Bits(bound.upper_bound()), Bits(serial.upper_bound()));
      EXPECT_EQ(Bits(bound.threshold()), Bits(serial.threshold()));
      EXPECT_EQ(bound.stats().candidates, serial.stats().candidates);
      EXPECT_EQ(bound.stats().full_evaluations,
                serial.stats().full_evaluations);
      EXPECT_EQ(bound.stats().descent_rounds, serial.stats().descent_rounds);
      for (size_t s = 0; s < q.sets.size(); ++s) {
        if (!OrdinaryDiagramSuffices(q, static_cast<int32_t>(s))) continue;
        std::vector<uint8_t> want;
        std::vector<uint8_t> got;
        CombinationBound::FilterStats stats;
        serial.KeepSites(static_cast<int32_t>(s), &want, &stats);
        bound.KeepSites(static_cast<int32_t>(s), &got, &stats);
        EXPECT_EQ(got, want) << "set " << s;
      }
    }
  }
}

TEST(CombinationBoundTest, NegativeWeightsDisablePruning) {
  // lb and its monotonicity assume non-negative coefficients.
  MolqQuery q = RandomQuery({5, 5, 5}, 349);
  q.sets[1].objects[2].type_weight = -1.0;
  EXPECT_EQ(PipelineBound(q, kBounds, 1e-3).threshold(),
            std::numeric_limits<double>::infinity());
}

TEST(CombinationBoundTest, PrunedStepIsTheUnprunedStepMinusPrunedPairs) {
  for (const MolqQuery& q : {RandomQuery({40, 30, 25}, 345),
                             WithObjectWeights(RandomQuery({20, 15}, 346),
                                               347)}) {
    const std::vector<Movd> basic = BuildAllBasic(q, kBounds, MolqOptions{});
    const CombinationBound bound = PipelineBound(q, kBounds, 1e-3);
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
  // One object of every set sits on the node (3, 2) of an 8x8 grid over
  // the search space, so the site there prices at MWGD 0: U = 0 and every
  // combination with a positive bound is pruned.
  const Point node{kBounds.min_x + 3 * (kBounds.Width() / 7),
                   kBounds.min_y + 2 * (kBounds.Height() / 7)};
  MolqQuery q = RandomQuery({6, 5, 4}, 351);
  for (ObjectSet& set : q.sets) set.objects[1].location = node;
  EXPECT_EQ(PipelineBound(q, kBounds, 1e-3).upper_bound(), 0.0);
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
  const CombinationBound bound = PipelineBound(q, kBounds, 1e-3);
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

TEST(ObjectFilterTest, DroppedSitesHoldOnlyPrunedCombinations) {
  // Every combination through a dropped site has a lower bound above τ,
  // and the filter drops something on these inputs.
  const MolqQuery q = RandomQuery({120, 100, 80}, 411);
  const CombinationBound bound = PipelineBound(q, kBounds, 1e-3);
  std::vector<SiteGrid> grids;
  for (size_t s = 0; s < q.sets.size(); ++s) grids.push_back(SetGrid(q, s));
  Rng rng(412);
  size_t dropped = 0;
  for (int32_t s = 0; s < 3; ++s) {
    std::vector<uint8_t> keep;
    CombinationBound::FilterStats stats;
    bound.KeepSites(s, &keep, &stats);
    ASSERT_EQ(keep.size(), grids[s].sites().size());
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
              j == s ? grids[s].first_input()[k]
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
        const CombinationBound bound =
            PipelineBound(q, kBounds, opts.epsilon);
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

// Named *Parallel* so the TSan job's *Parallel* filter runs it. The pruned
// VD stage triangulates only around the kept sites (ClipKeptCells). With
// the audit on, the full diagram is built beside it and every kept cell is
// checked against it bit for bit (AuditKeptCells), and the answer equals
// the unpruned stages'. Inputs in general position (uniform, clustered
// around town centres, with duplicates) certify every set locally; on a
// cocircular lattice the kept stars meet circles through four sites, and
// those sets fall back to the full triangulation.
TEST(ObjectFilterParallelTest, LocalTriangulationMatchesTheFullDiagram) {
  const auto clustered = [](MolqQuery q, uint64_t seed) {
    Rng rng(seed);
    for (ObjectSet& set : q.sets) {
      std::vector<Point> centres(12);
      for (Point& c : centres) c = {rng.Uniform(10, 90), rng.Uniform(10, 90)};
      for (SpatialObject& obj : set.objects) {
        const Point& c = centres[rng.NextBelow(centres.size())];
        obj.location = {std::clamp(c.x + 3.0 * rng.NextGaussian(), 1.0, 99.0),
                        std::clamp(c.y + 3.0 * rng.NextGaussian(), 1.0, 99.0)};
      }
    }
    return q;
  };
  const auto duplicated = [](MolqQuery q) {
    for (ObjectSet& set : q.sets) {
      const std::vector<SpatialObject> copy = set.objects;
      set.objects.insert(set.objects.end(), copy.begin(), copy.begin() + 40);
    }
    return q;
  };
  const auto lattice = [](MolqQuery q) {
    for (size_t s = 0; s < q.sets.size(); ++s) {
      for (size_t i = 0; i < q.sets[s].objects.size(); ++i) {
        q.sets[s].objects[i].location = {
            5.0 + 3.0 * static_cast<double>(i % 30) + static_cast<double>(s),
            5.0 + 3.0 * static_cast<double>(i / 30)};
      }
    }
    return q;
  };
  struct Case {
    const char* name;
    MolqQuery query;
    bool degenerate;
  };
  const std::vector<Case> cases = {
      {"uniform", RandomQuery({300, 250, 200}, 701), false},
      {"clustered", clustered(RandomQuery({400, 300, 300, 200}, 702), 703),
       false},
      {"duplicated", duplicated(RandomQuery({200, 150, 150}, 704)), false},
      {"lattice", lattice(RandomQuery({300, 300, 270}, 705)), true},
  };
  for (const Case& c : cases) {
    size_t sites = 0;
    for (const ObjectSet& set : c.query.sets) {
      std::vector<Point> locations;
      for (const SpatialObject& obj : set.objects) {
        locations.push_back(obj.location);
      }
      sites += SiteGrid(locations).sites().size();
    }
    for (const int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE(::testing::Message() << c.name << ", threads " << threads);
      MolqOptions opts;
      opts.exec.threads = threads;
      const OptimizerResult want = SolveStagedUnpruned(c.query, kBounds, opts);
      Trace trace;
      opts.exec.audit = true;
      opts.exec.trace = &trace;
      const MolqResult got = SolveMolq(c.query, kBounds, opts);
      ExpectSameAnswer(want, got);
      EXPECT_GT(got.audit.checks(), 0u);
      // The lattice's full diagram itself draws Voronoi findings from the
      // auditor; its kept cells must still match that diagram.
      for (const std::string& message : got.audit.Messages()) {
        EXPECT_TRUE(c.degenerate) << message;
        EXPECT_EQ(message.find("kept cells"), std::string::npos) << message;
      }
      int64_t fallbacks = 0;
      for (const TraceSpanRecord& r : trace.Collect()) {
        for (const auto& [key, value] : r.counters) {
          if (r.name == "local_delaunay" && key == "full_fallbacks") {
            fallbacks += value;
          }
        }
      }
      if (c.degenerate) {
        EXPECT_GT(fallbacks, 0);
        continue;
      }
      EXPECT_EQ(fallbacks, 0);
      EXPECT_GT(got.stats.pruned_objects, 0u);
      EXPECT_LT(got.stats.triangulated_sites, sites);
    }
  }
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
    const CombinationBound bound = PipelineBound(q, kBounds, 1e-3);
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
