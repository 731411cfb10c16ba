// End-to-end tests of the MOLQ engine: SSC, RRB and MBRB must agree with
// each other and with a brute-force grid scan of MWGD; the worked example
// of the paper's Fig. 1 must reproduce; weighted variants stay consistent.

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/grid_scan.h"
#include "core/molq.h"
#include "core/topk.h"
#include "core/weighted_distance.h"
#include "model/query_model.h"
#include "serve/query_engine.h"
#include "util/rng.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

MolqQuery RandomQuery(const std::vector<size_t>& sizes, uint64_t seed,
                      bool random_type_weights) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    for (size_t i = 0; i < sizes[s]; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      obj.type_weight = random_type_weights ? rng.Uniform(0.1, 10.0) : 1.0;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

MolqResult Solve(const MolqQuery& q, MolqAlgorithm algo,
                 double epsilon = 1e-6) {
  MolqOptions opts;
  opts.algorithm = algo;
  opts.epsilon = epsilon;
  return SolveMolq(q, kBounds, opts);
}

TEST(WeightedDistanceTest, MultiplicativeComposition) {
  SpatialObject p;
  p.location = {3, 4};
  p.type_weight = 2.0;
  p.object_weight = 3.0;
  // WD = ((d * w_o) * w_t) = 5 * 3 * 2.
  EXPECT_DOUBLE_EQ(WeightedDistance({0, 0}, p,
                                    WeightFunctionKind::kMultiplicative,
                                    WeightFunctionKind::kMultiplicative),
                   30.0);
}

TEST(WeightedDistanceTest, AdditiveComposition) {
  SpatialObject p;
  p.location = {3, 4};
  p.type_weight = 2.0;
  p.object_weight = 3.0;
  // WD = (d + w_o) + w_t = 5 + 3 + 2.
  EXPECT_DOUBLE_EQ(
      WeightedDistance({0, 0}, p, WeightFunctionKind::kAdditive,
                       WeightFunctionKind::kAdditive),
      10.0);
}

TEST(WeightedDistanceTest, DecompositionMatchesDirectEvaluation) {
  Rng rng(111);
  const WeightFunctionKind kinds[] = {WeightFunctionKind::kMultiplicative,
                                      WeightFunctionKind::kAdditive};
  for (const auto type_fn : kinds) {
    for (const auto object_fn : kinds) {
      for (int i = 0; i < 50; ++i) {
        SpatialObject p;
        p.location = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
        p.type_weight = rng.Uniform(0.1, 5);
        p.object_weight = rng.Uniform(0.1, 5);
        const Point q{rng.Uniform(0, 10), rng.Uniform(0, 10)};
        const auto term = DecomposeWeightedDistance(p, type_fn, object_fn);
        const double via_term =
            term.fw_weight * Distance(q, p.location) + term.offset;
        EXPECT_NEAR(via_term, WeightedDistance(q, p, type_fn, object_fn),
                    1e-12);
      }
    }
  }
}

TEST(WeightedDistanceTest, MwgdEqualsBruteForceMinimum) {
  const MolqQuery q = RandomQuery({4, 3, 3}, 112, /*random_type_weights=*/true);
  Rng rng(113);
  for (int trial = 0; trial < 20; ++trial) {
    const Point pt{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    // Brute force over the cartesian product.
    double best = std::numeric_limits<double>::infinity();
    for (int32_t a = 0; a < 4; ++a) {
      for (int32_t b = 0; b < 3; ++b) {
        for (int32_t c = 0; c < 3; ++c) {
          best = std::min(best, WeightedGroupDistance(q, pt, {a, b, c}));
        }
      }
    }
    EXPECT_NEAR(MinWeightedGroupDistance(q, pt), best, 1e-9);
  }
}

TEST(MolqFigure1Test, ReproducesTheWorkedExample) {
  // Paper Fig. 1: with unit weights Community 1 wins with total distance
  // 16 = 7 + 4 + 5; with the custom weights Community 3 wins with 33.
  // We model the three candidate communities as the query points and check
  // MWGD rankings; the data uses distances structured like the figure.
  MolqQuery query;
  query.sets.resize(3);
  query.sets[0].name = "school";
  query.sets[1].name = "bus";
  query.sets[2].name = "market";

  const Point c1{0, 0}, c2{40, 0}, c3{80, 0};
  // One object per type near each community, with distances chosen to
  // reproduce the figure's numbers exactly for the closest assignments.
  auto add = [](ObjectSet* set, Point at, double wt, double wo) {
    SpatialObject obj;
    obj.location = at;
    obj.type_weight = wt;
    obj.object_weight = wo;
    set->objects.push_back(obj);
  };
  // Distances from c1: school 7, bus 4, market 5  (sum 16).
  add(&query.sets[0], {0, 7}, 1, 1);
  add(&query.sets[1], {0, 4}, 1, 1);
  add(&query.sets[2], {0, 5}, 1, 1);
  // Distances from c2: school 8, bus 5, market 6  (sum 19).
  add(&query.sets[0], {40, 8}, 1, 1);
  add(&query.sets[1], {40, 5}, 1, 1);
  add(&query.sets[2], {40, 6}, 1, 1);
  // Distances from c3: school 5, bus 8, market 5  (sum 18).
  add(&query.sets[0], {80, 5}, 1, 1);
  add(&query.sets[1], {80, 8}, 1, 1);
  add(&query.sets[2], {80, 5}, 1, 1);

  EXPECT_DOUBLE_EQ(MinWeightedGroupDistance(query, c1), 16.0);
  EXPECT_DOUBLE_EQ(MinWeightedGroupDistance(query, c2), 19.0);
  EXPECT_DOUBLE_EQ(MinWeightedGroupDistance(query, c3), 18.0);

  // Custom weights, modelling the figure's outcome: the objects near
  // communities 1 and 2 get penalising type weights, community 3's get
  // preferential ones (school 3, bus 1, market 2 -> 5*3 + 8*1 + 5*2 = 33),
  // flipping the winner to community 3.
  for (int t = 0; t < 3; ++t) {
    query.sets[t].objects[0].type_weight = 3.0;  // near c1
    query.sets[t].objects[1].type_weight = 3.0;  // near c2
  }
  query.sets[0].objects[2].type_weight = 3.0;  // school near c3: 5*3 = 15
  query.sets[1].objects[2].type_weight = 1.0;  // bus near c3:    8*1 = 8
  query.sets[2].objects[2].type_weight = 2.0;  // market near c3: 5*2 = 10
  EXPECT_DOUBLE_EQ(WeightedGroupDistance(query, c3, {2, 2, 2}), 33.0);
  EXPECT_DOUBLE_EQ(MinWeightedGroupDistance(query, c3), 33.0);
  EXPECT_LT(MinWeightedGroupDistance(query, c3),
            MinWeightedGroupDistance(query, c1));
  EXPECT_LT(MinWeightedGroupDistance(query, c3),
            MinWeightedGroupDistance(query, c2));
}

class MolqAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MolqAgreementTest, SscRrbMbrbAgreeUnitWeights) {
  const MolqQuery q =
      RandomQuery({5, 4, 4}, GetParam(), /*random_type_weights=*/false);
  const auto ssc = Solve(q, MolqAlgorithm::kSsc);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb);
  const auto mbrb = Solve(q, MolqAlgorithm::kMbrb);
  const double tol = 1e-4 * ssc.cost + 1e-9;
  EXPECT_NEAR(rrb.cost, ssc.cost, tol);
  EXPECT_NEAR(mbrb.cost, ssc.cost, tol);
}

TEST_P(MolqAgreementTest, SscRrbMbrbAgreeRandomTypeWeights) {
  const MolqQuery q =
      RandomQuery({4, 4, 3}, GetParam() + 1000, /*random_type_weights=*/true);
  const auto ssc = Solve(q, MolqAlgorithm::kSsc);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb);
  const auto mbrb = Solve(q, MolqAlgorithm::kMbrb);
  const double tol = 1e-4 * ssc.cost + 1e-9;
  EXPECT_NEAR(rrb.cost, ssc.cost, tol);
  EXPECT_NEAR(mbrb.cost, ssc.cost, tol);
}

TEST_P(MolqAgreementTest, SolversBeatGridScan) {
  const MolqQuery q =
      RandomQuery({4, 3, 3}, GetParam() + 2000, /*random_type_weights=*/true);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb);
  const auto grid = GridScanMolq(q, kBounds, 60);
  // The solver's optimum can only be better than the best grid point, and
  // the grid point bounds how far the solver could be from optimal.
  EXPECT_LE(rrb.cost, grid.cost * (1.0 + 1e-4) + 1e-9);
  // MWGD at the returned location must equal the reported cost.
  EXPECT_NEAR(MinWeightedGroupDistance(q, rrb.location), rrb.cost,
              1e-6 * rrb.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MolqAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(MolqTest, TwoTypesOnly) {
  const MolqQuery q = RandomQuery({6, 6}, 114, true);
  const auto ssc = Solve(q, MolqAlgorithm::kSsc);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb);
  EXPECT_NEAR(rrb.cost, ssc.cost, 1e-4 * ssc.cost + 1e-9);
}

TEST(MolqTest, SingleTypeReturnsAnObjectLocation) {
  // With one set, the optimum is at (one of) the objects themselves.
  const MolqQuery q = RandomQuery({5}, 115, false);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb);
  EXPECT_NEAR(rrb.cost, 0.0, 1e-9);
}

TEST(MolqTest, FourTypesAgreement) {
  const MolqQuery q = RandomQuery({3, 3, 3, 3}, 116, true);
  const auto ssc = Solve(q, MolqAlgorithm::kSsc, 1e-3);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb, 1e-3);
  const auto mbrb = Solve(q, MolqAlgorithm::kMbrb, 1e-3);
  const double tol = 2e-3 * ssc.cost + 1e-9;
  EXPECT_NEAR(rrb.cost, ssc.cost, tol);
  EXPECT_NEAR(mbrb.cost, ssc.cost, tol);
}

TEST(MolqTest, ObjectWeightsRouteThroughWeightedDiagrams) {
  // Non-uniform object weights force the grid-approximated weighted
  // Voronoi path; results must still match SSC (which is exact in the
  // combinatorial sense).
  MolqQuery q = RandomQuery({4, 4}, 117, false);
  Rng rng(118);
  for (auto& set : q.sets) {
    for (auto& obj : set.objects) obj.object_weight = rng.Uniform(0.5, 2.0);
  }
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kMbrb;
  opts.epsilon = 1e-6;
  opts.exec.weighted_grid_resolution = 96;
  const auto mbrb = SolveMolq(q, kBounds, opts);
  const auto ssc = Solve(q, MolqAlgorithm::kSsc);
  // MBRB over approximated diagrams keeps false positives, so it scans a
  // superset of combinations: costs match.
  EXPECT_NEAR(mbrb.cost, ssc.cost, 1e-3 * ssc.cost + 1e-9);
}

TEST(MolqTest, DedupCombinationsDoesNotChangeAnswer) {
  const MolqQuery q = RandomQuery({5, 5, 4}, 119, true);
  MolqOptions a;
  a.algorithm = MolqAlgorithm::kMbrb;
  a.epsilon = 1e-6;
  const auto base = SolveMolq(q, kBounds, a);
  MolqOptions b = a;
  b.dedup_combinations = true;
  const auto dedup = SolveMolq(q, kBounds, b);
  EXPECT_NEAR(base.cost, dedup.cost, 1e-9);
  EXPECT_GE(base.stats.optimizer.problems, dedup.stats.optimizer.problems);
}

TEST(MolqTest, CostBoundAndPrefilterDoNotChangeAnswer) {
  const MolqQuery q = RandomQuery({5, 4, 4}, 120, true);
  MolqOptions slow;
  slow.algorithm = MolqAlgorithm::kRrb;
  slow.epsilon = 1e-6;
  slow.use_cost_bound = false;
  slow.use_two_point_prefilter = false;
  const auto base = SolveMolq(q, kBounds, slow);
  MolqOptions fast = slow;
  fast.use_cost_bound = true;
  fast.use_two_point_prefilter = true;
  const auto pruned = SolveMolq(q, kBounds, fast);
  EXPECT_NEAR(base.cost, pruned.cost, 2e-6 * base.cost + 1e-9);
}

TEST(MolqTest, Property5HoldsOnFinalMovd) {
  // Paper Property 5: for q in OVR(p_1..p_n), WGD(q, its group) equals
  // MWGD(q, Ē).
  const MolqQuery q = RandomQuery({4, 4}, 121, false);
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  // Rebuild the final MOVD through the public pieces.
  std::vector<Movd> basic;
  for (int32_t s = 0; s < 2; ++s) {
    basic.push_back(BuildBasicMovd(q, s, kBounds, 64));
  }
  const Movd final_movd = OverlapAll(basic, BoundaryMode::kRealRegion);
  Rng rng(122);
  for (const Ovr& ovr : final_movd.ovrs) {
    // Probe the OVR's centroid when it lies inside the region.
    if (ovr.region.pieces().empty()) continue;
    const Point probe = ovr.region.pieces()[0].Centroid();
    if (!ovr.region.Contains(probe)) continue;
    EXPECT_NEAR(WeightedGroupDistance(q, probe, ovr.pois),
                MinWeightedGroupDistance(q, probe), 1e-9);
  }
}

class MolqParallelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MolqParallelTest, ThreadCountDoesNotChangeTheAnswer) {
  // The whole point of the (cost, index) reduction + strict shared bound:
  // the answer triple is bit-identical for every thread count.
  const MolqQuery q =
      RandomQuery({5, 4, 4}, GetParam() + 3000, /*random_type_weights=*/true);
  for (const MolqAlgorithm algo :
       {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
    MolqOptions opts;
    opts.algorithm = algo;
    opts.epsilon = 1e-6;
    const auto serial = SolveMolq(q, kBounds, opts);
    EXPECT_EQ(serial.stats.threads, 1);
    for (const int threads : {2, 4, 8}) {
      MolqOptions par = opts;
      par.exec.threads = threads;
      const auto r = SolveMolq(q, kBounds, par);
      EXPECT_EQ(r.cost, serial.cost) << "threads=" << threads;
      EXPECT_EQ(r.location.x, serial.location.x) << "threads=" << threads;
      EXPECT_EQ(r.location.y, serial.location.y) << "threads=" << threads;
      EXPECT_EQ(r.group, serial.group) << "threads=" << threads;
      EXPECT_EQ(r.stats.threads, threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MolqParallelTest,
                         ::testing::Values(31, 32, 33, 34));

TEST(MolqParallelWeightedTest, GridDiagramsDeterministicAcrossThreads) {
  // Non-uniform object weights route through the row-parallel weighted
  // Voronoi grid; the owner grid is a pure function of its inputs, so the
  // final answer must not depend on the thread count either.
  MolqQuery q = RandomQuery({4, 4}, 3100, /*random_type_weights=*/false);
  Rng rng(3101);
  for (auto& set : q.sets) {
    for (auto& obj : set.objects) obj.object_weight = rng.Uniform(0.5, 2.0);
  }
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kMbrb;
  opts.epsilon = 1e-6;
  opts.exec.weighted_grid_resolution = 64;
  const auto serial = SolveMolq(q, kBounds, opts);
  MolqOptions par = opts;
  par.exec.threads = 4;
  const auto r = SolveMolq(q, kBounds, par);
  EXPECT_EQ(r.cost, serial.cost);
  EXPECT_EQ(r.location.x, serial.location.x);
  EXPECT_EQ(r.location.y, serial.location.y);
  EXPECT_EQ(r.group, serial.group);
}

TEST(MolqTest, TiedOptimaAgreeAcrossEnginesAndThreads) {
  // Two combinations tie at cost exactly 5: (A, C) and (B, D) both span a
  // (3, 4) displacement. With the unified strict (>) prefilter/bound tie
  // semantics, neither engine may discard the tied runner-up mid-search,
  // and SSC and RRB must land on the same cost.
  MolqQuery q;
  q.sets.resize(2);
  q.sets[0].name = "first";
  q.sets[1].name = "second";
  auto add = [](ObjectSet* set, Point at) {
    SpatialObject obj;
    obj.location = at;
    obj.type_weight = 1.0;
    obj.object_weight = 1.0;
    set->objects.push_back(obj);
  };
  add(&q.sets[0], {10, 10});  // A
  add(&q.sets[0], {60, 10});  // B
  add(&q.sets[1], {13, 14});  // C = A + (3, 4)
  add(&q.sets[1], {63, 14});  // D = B + (3, 4)

  const auto ssc = Solve(q, MolqAlgorithm::kSsc);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb);
  EXPECT_EQ(ssc.cost, 5.0);
  EXPECT_EQ(rrb.cost, 5.0);
  EXPECT_EQ(ssc.cost, rrb.cost);
  // Each returned location must genuinely achieve the minimum MWGD.
  EXPECT_EQ(MinWeightedGroupDistance(q, ssc.location), 5.0);
  EXPECT_EQ(MinWeightedGroupDistance(q, rrb.location), 5.0);

  // And the tie resolution is thread-count-invariant.
  MolqOptions par;
  par.algorithm = MolqAlgorithm::kRrb;
  par.epsilon = 1e-6;
  par.exec.threads = 4;
  const auto rrb4 = SolveMolq(q, kBounds, par);
  EXPECT_EQ(rrb4.cost, rrb.cost);
  EXPECT_EQ(rrb4.location.x, rrb.location.x);
  EXPECT_EQ(rrb4.location.y, rrb.location.y);
  EXPECT_EQ(rrb4.group, rrb.group);
}

TEST(MolqTest, EmptyOverlayIsAStatusNotAnAbort) {
  // Sites and box scaled by 2^600: every Voronoi cell clips to nothing, so
  // the overlay is empty and there is nothing to optimise. Both entry
  // points report kInternal instead of aborting. At 2^250 the same query
  // answers.
  for (const int exponent : {250, 600}) {
    MolqQuery q = RandomQuery({3, 3}, 2901, /*random_type_weights=*/false);
    for (ObjectSet& set : q.sets) {
      for (SpatialObject& obj : set.objects) {
        obj.location = {std::ldexp(obj.location.x, exponent),
                        std::ldexp(obj.location.y, exponent)};
      }
    }
    const Rect box(std::ldexp(kBounds.min_x, exponent),
                   std::ldexp(kBounds.min_y, exponent),
                   std::ldexp(kBounds.max_x, exponent),
                   std::ldexp(kBounds.max_y, exponent));
    const StatusCode want =
        exponent == 600 ? StatusCode::kInternal : StatusCode::kOk;
    for (const MolqAlgorithm algorithm :
         {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
      MolqOptions opts;
      opts.algorithm = algorithm;
      const MolqResult solve = SolveMolq(q, box, opts);
      EXPECT_EQ(solve.status, want) << "2^" << exponent;
      const MolqResult topk = SolveMolqTopK(q, box, 2, opts);
      EXPECT_EQ(topk.status, want) << "2^" << exponent;
      if (want == StatusCode::kOk) {
        EXPECT_FALSE(topk.ranked.empty());
      } else {
        EXPECT_EQ(solve.stats.final_ovrs, 0u);
        EXPECT_TRUE(solve.ranked.empty());
        EXPECT_TRUE(topk.ranked.empty());
      }
    }
  }
}

TEST(MolqTest, GroupIsPopulatedAndConsistent) {
  // MolqResult.group must name the combination that realises the cost, for
  // every engine.
  const MolqQuery q = RandomQuery({4, 3, 3}, 3200, true);
  for (const MolqAlgorithm algo :
       {MolqAlgorithm::kSsc, MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
    const auto r = Solve(q, algo);
    ASSERT_EQ(r.group.size(), q.sets.size());
    EXPECT_NEAR(WeightedGroupDistance(q, r.location, r.group), r.cost,
                1e-6 * r.cost + 1e-9);
  }
}

TEST(MolqTest, StatsArePopulated) {
  const MolqQuery q = RandomQuery({6, 6, 5}, 123, true);
  const auto rrb = Solve(q, MolqAlgorithm::kRrb);
  EXPECT_GT(rrb.stats.final_ovrs, 0u);
  EXPECT_GT(rrb.stats.memory_bytes, 0u);
  EXPECT_GT(rrb.stats.optimizer.problems, 0u);
  EXPECT_EQ(rrb.stats.optimizer.problems, rrb.stats.final_ovrs);
  const auto ssc = Solve(q, MolqAlgorithm::kSsc);
  EXPECT_EQ(ssc.stats.optimizer.problems, 6u * 6u * 5u);
}


// Integer-grid sets symmetric about the world's centre, two objects per
// type: every type count from 2 to 4 has several object groups whose
// optimal costs tie exactly.
MolqQuery SymmetricGridQuery(size_t types) {
  const std::vector<std::vector<Point>> layers = {{{40, 50}, {60, 50}},
                                                  {{50, 40}, {50, 60}},
                                                  {{30, 30}, {70, 70}},
                                                  {{30, 70}, {70, 30}}};
  MolqQuery query;
  for (size_t s = 0; s < types; ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    for (const Point& at : layers[s]) {
      SpatialObject obj;
      obj.location = at;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

void ExpectSameAnswer(const SiteCandidate& want, const Point& location,
                      double cost, const std::vector<PoiRef>& group,
                      const std::string& path) {
  EXPECT_EQ(std::bit_cast<uint64_t>(location.x),
            std::bit_cast<uint64_t>(want.location.x))
      << path;
  EXPECT_EQ(std::bit_cast<uint64_t>(location.y),
            std::bit_cast<uint64_t>(want.location.y))
      << path;
  EXPECT_EQ(std::bit_cast<uint64_t>(cost), std::bit_cast<uint64_t>(want.cost))
      << path;
  EXPECT_EQ(group, want.group) << path;
}

TEST(MolqTiedTest, EveryPathPicksTheLeastTiedGroup) {
  // One tie rule everywhere: among groups whose costs tie exactly, SolveMolq
  // (pruned, any thread count), SSC, SolveMolqTopK and a served SOLVE (fresh
  // or on an overlay patched by INSERT and DELETE) all return the
  // GroupBefore-least one, whatever order their overlays hold the OVRs in.
  constexpr double kEpsilon = 1e-3;
  constexpr Point kFar{5, 95};  // its groups cost more than the tie
  for (size_t types = 2; types <= 4; ++types) {
    const MolqQuery query = SymmetricGridQuery(types);
    for (const MolqAlgorithm algo :
         {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
      const std::string tag = std::to_string(types) + " types, " +
                              (algo == MolqAlgorithm::kRrb ? "rrb" : "mbrb");
      MolqOptions options;
      options.algorithm = algo;
      options.epsilon = kEpsilon;

      // The oracle: every group's answer, then the least tied group.
      const MolqResult all =
          SolveMolqTopK(query, kBounds, size_t{1} << types, options);
      ASSERT_EQ(all.status, StatusCode::kOk) << tag;
      std::vector<SiteCandidate> tied;
      for (const SiteCandidate& r : all.ranked) {
        if (r.cost == all.ranked.front().cost) tied.push_back(r);
      }
      ASSERT_GE(tied.size(), 2u) << tag << ": no exact tie to break";
      const SiteCandidate want = *std::min_element(
          tied.begin(), tied.end(),
          [](const SiteCandidate& a, const SiteCandidate& b) {
            return GroupBefore(a.group, b.group);
          });

      for (const int threads : {1, 4}) {
        MolqOptions solve = options;
        solve.exec.threads = threads;
        const MolqResult r = SolveMolq(query, kBounds, solve);
        ASSERT_EQ(r.status, StatusCode::kOk) << tag;
        ExpectSameAnswer(want, r.location, r.cost, r.group,
                         tag + ", SolveMolq threads=" +
                             std::to_string(threads));
      }
      MolqOptions ssc = options;
      ssc.algorithm = MolqAlgorithm::kSsc;
      const MolqResult scan = SolveMolq(query, kBounds, ssc);
      ExpectSameAnswer(want, scan.location, scan.cost, scan.group,
                       tag + ", SSC");
      const MolqResult top = SolveMolqTopK(query, kBounds, 1, options);
      ASSERT_EQ(top.status, StatusCode::kOk) << tag;
      ExpectSameAnswer(want, top.location, top.cost, top.group,
                       tag + ", SolveMolqTopK");

      QueryEngine engine;
      engine.RegisterDataset("d", query, kBounds);
      EngineRequest request;
      request.dataset = "d";
      request.epsilon = kEpsilon;
      request.op = SolveSpec{algo, 1};
      const auto served = [&](const std::string& path, bool patched) {
        const ServeResponse resp = engine.Handle(request);
        ASSERT_EQ(resp.status, ServeStatus::kOk) << tag << ": " << resp.error;
        EXPECT_EQ(resp.cache_hit, patched) << tag << ", " << path;
        ASSERT_EQ(resp.answers.size(), 1u) << tag;
        const SiteCandidate& a = resp.answers.front();
        ExpectSameAnswer(want, a.location, a.cost, a.group, tag + ", " + path);
      };
      served("served SOLVE", /*patched=*/false);
      for (const MutationKind kind :
           {MutationKind::kInsert, MutationKind::kDelete}) {
        EngineRequest mutation;
        mutation.dataset = "d";
        mutation.op = SiteMutation{kind, 0, kFar};
        const ServeResponse applied = engine.Handle(mutation);
        ASSERT_EQ(applied.status, ServeStatus::kOk) << tag << applied.error;
        ASSERT_GT(applied.mutation.patched_artifacts, 0u) << tag;
        served(kind == MutationKind::kInsert ? "served after INSERT"
                                             : "served after DELETE",
               /*patched=*/true);
      }
    }
  }
}

}  // namespace
}  // namespace movd
