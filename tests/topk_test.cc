#include <algorithm>
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "audit/audit_overlay.h"
#include "core/molq.h"
#include "core/ssc.h"
#include "core/topk.h"
#include "core/weighted_distance.h"
#include "movd_test_util.h"
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
    const double type_weight = rng.Uniform(0.5, 5.0);
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

// Reference: per-combination optimal costs via SSC-style enumeration.
std::vector<double> AllCombinationCosts(const MolqQuery& q, double epsilon) {
  std::vector<double> costs;
  std::vector<int32_t> combo(q.sets.size(), 0);
  bool done = false;
  while (!done) {
    std::vector<PoiRef> group;
    for (size_t s = 0; s < combo.size(); ++s) {
      group.push_back({static_cast<int32_t>(s), combo[s]});
    }
    // Optimum of this combination via the single-problem path: reuse SSC
    // on a query restricted to the chosen objects.
    MolqQuery sub;
    for (size_t s = 0; s < q.sets.size(); ++s) {
      ObjectSet set;
      set.name = q.sets[s].name;
      set.objects = {q.sets[s].objects[combo[s]]};
      sub.sets.push_back(std::move(set));
    }
    OptimizerOptions opts;
    opts.epsilon = epsilon;
    costs.push_back(SolveSsc(sub, opts).cost);
    size_t i = 0;
    while (i < combo.size()) {
      if (++combo[i] <
          static_cast<int32_t>(q.sets[i].objects.size())) {
        break;
      }
      combo[i] = 0;
      ++i;
    }
    done = i == combo.size();
  }
  std::sort(costs.begin(), costs.end());
  return costs;
}

TEST(TopKTest, TopOneMatchesSolveMolq) {
  const MolqQuery q = RandomQuery({4, 4, 4}, 401);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 1, opts).ranked;
  ASSERT_EQ(top.size(), 1u);
  const auto single = SolveMolq(q, kBounds, opts);
  EXPECT_NEAR(top[0].cost, single.cost, 1e-9);
}

TEST(TopKTest, ResultsAscendAndAreDistinctCombinations) {
  const MolqQuery q = RandomQuery({5, 5}, 402);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 5, opts).ranked;
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].cost, top[i].cost);
    EXPECT_NE(top[i - 1].group, top[i].group);
  }
}

TEST(TopKTest, MatchesExhaustiveRankingOnCoveredCombinations) {
  // Every top-k cost must appear in the exhaustive per-combination cost
  // list, and the first one must be the global optimum.
  const MolqQuery q = RandomQuery({3, 3, 3}, 403);
  MolqOptions opts;
  opts.epsilon = 1e-8;
  const auto top = SolveMolqTopK(q, kBounds, 4, opts).ranked;
  const auto all = AllCombinationCosts(q, 1e-8);
  ASSERT_GE(top.size(), 1u);
  EXPECT_NEAR(top[0].cost, all[0], 1e-4 * all[0] + 1e-9);
  for (const SiteCandidate& r : top) {
    bool found = false;
    for (const double c : all) {
      if (std::abs(c - r.cost) <= 1e-4 * c + 1e-9) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << r.cost;
  }
}

TEST(TopKTest, KLargerThanCombinationsReturnsAll) {
  const MolqQuery q = RandomQuery({2, 2}, 404);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 100, opts).ranked;
  // The MOVD only materialises co-occurring combinations, so the count is
  // at most 4 and at least 1.
  EXPECT_GE(top.size(), 1u);
  EXPECT_LE(top.size(), 4u);
}

// Two combinations tie at cost exactly 5: (A, C) and (B, D) both span a
// (3, 4) displacement, solved exactly by the two-point special case.
MolqQuery TiedPairQuery() {
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
  return q;
}

TEST(TopKTest, TiedKthPlusOneIsNotPruned) {
  // With k = 1 the runner-up ties the winner exactly. The k-th-best bound
  // must be non-pruning on ties (strict comparison), so the tied candidate
  // is still fully examined and the reported optimum stays exact.
  const MolqQuery q = TiedPairQuery();
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top1 = SolveMolqTopK(q, kBounds, 1, opts).ranked;
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].cost, 5.0);
}

TEST(TopKTest, BothTiedGroupsAreRetained) {
  const MolqQuery q = TiedPairQuery();
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 2, opts).ranked;
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].cost, 5.0);
  EXPECT_EQ(top[1].cost, 5.0);
  EXPECT_NE(top[0].group, top[1].group);
  // Each tied answer genuinely achieves the minimum at its own location.
  EXPECT_EQ(MinWeightedGroupDistance(q, top[0].location), 5.0);
  EXPECT_EQ(MinWeightedGroupDistance(q, top[1].location), 5.0);
}

TEST(TopKTest, RanksBeyondTheTieStayOrdered) {
  const MolqQuery q = TiedPairQuery();
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 4, opts).ranked;
  // (A, D) co-occurs nowhere in the overlap, so at most 3 combinations
  // materialise; the two tied at 5 must lead.
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].cost, 5.0);
  EXPECT_EQ(top[1].cost, 5.0);
  for (size_t i = 2; i < top.size(); ++i) {
    EXPECT_GT(top[i].cost, 5.0);
  }
}

TEST(TopKTest, KLargerThanCombinationCountReturnsEveryCombination) {
  // Documented edge case: an oversized k is not an error — the ranking
  // simply ends when the distinct combinations run out, still ascending.
  const MolqQuery q = RandomQuery({2, 2}, 420);
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = SolveMolqTopK(q, kBounds, 99, opts).ranked;
  EXPECT_LE(top.size(), 4u);  // at most |set0| * |set1| combinations
  ASSERT_GE(top.size(), 1u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].cost, top[i].cost);
    EXPECT_NE(top[i - 1].group, top[i].group);
  }
  // Asking for even more changes nothing.
  const auto again = SolveMolqTopK(q, kBounds, 1000, opts).ranked;
  ASSERT_EQ(again.size(), top.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(again[i].cost, top[i].cost);
    EXPECT_EQ(again[i].group, top[i].group);
  }
}

// A hand-built MOVD whose every OVR pairs two co-located objects: each
// combination's optimum costs exactly 0.0, so ALL candidates tie and the
// ranking must fall back to the documented lexicographic group order.
TEST(TopKTest, AllCandidatesTiedRankInLexicographicGroupOrder) {
  MolqQuery q;
  for (int s = 0; s < 2; ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    for (int i = 0; i < 3; ++i) {
      SpatialObject obj;
      obj.location = {10.0 + 30.0 * i, 50.0};
      set.objects.push_back(obj);
    }
    q.sets.push_back(std::move(set));
  }
  Movd movd;
  // Insert in reverse group order to prove the ranking does not depend on
  // OVR scan order when every cost ties.
  for (int i = 2; i >= 0; --i) {
    Ovr ovr;
    const Rect cell(30.0 * i, 0, 30.0 * i + 30.0, 100);
    ovr.region = Region::FromRect(cell);
    ovr.mbr = cell;
    ovr.pois = {{0, i}, {1, i}};
    movd.ovrs.push_back(std::move(ovr));
  }
  MolqOptions opts;
  opts.epsilon = 1e-6;
  const auto top = TopKFromMovd(q, movd, 5, opts).ranked;
  ASSERT_EQ(top.size(), 3u);  // oversized k: every combination, once
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top[i].cost, 0.0);
    ASSERT_EQ(top[i].group.size(), 2u);
    EXPECT_EQ(top[i].group[0].object, static_cast<int32_t>(i));
    EXPECT_EQ(top[i].group[1].object, static_cast<int32_t>(i));
  }
}

TEST(TopKTest, MbrbRankingHoldsEachCombinationOnce) {
  // MBRB false positives add combinations RRB would drop, but the overlay
  // still holds each combination in one OVR, so the ranking names each
  // group at most once.
  const MolqQuery q = RandomQuery({3, 3}, 421);
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kMbrb;
  opts.epsilon = 1e-6;
  const auto ranked = SolveMolqTopK(q, kBounds, 9, opts).ranked;
  for (size_t i = 0; i < ranked.size(); ++i) {
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      EXPECT_NE(ranked[i].group, ranked[j].group);
    }
  }
}

TEST(TopKTest, MbrbAgreesWithRrbOnTopCosts) {
  const MolqQuery q = RandomQuery({4, 4, 3}, 405);
  MolqOptions rrb;
  rrb.epsilon = 1e-6;
  MolqOptions mbrb = rrb;
  mbrb.algorithm = MolqAlgorithm::kMbrb;
  const auto a = SolveMolqTopK(q, kBounds, 3, rrb).ranked;
  const auto b = SolveMolqTopK(q, kBounds, 3, mbrb).ranked;
  ASSERT_GE(a.size(), 1u);
  ASSERT_GE(b.size(), 1u);
  // The winner must agree; deeper ranks may differ because MBRB's false
  // positives materialise more combinations.
  EXPECT_NEAR(a[0].cost, b[0].cost, 1e-6 * a[0].cost + 1e-9);
  EXPECT_GE(b.size(), a.size() > 3 ? 3u : a.size());
}

TEST(TopKParallelTest, RankingIsBitIdenticalAcrossThreads) {
  // The top-k scan fans its chunks out over exec.threads: every rank's
  // location, cost and group must not depend on the thread count, on RRB
  // and on MBRB overlays, for k below, at and beyond the OVR count.
  const MolqQuery q = RandomQuery({30, 25, 20}, 431);
  for (const MolqAlgorithm algorithm :
       {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
    MolqOptions opts;
    opts.algorithm = algorithm;
    MolqResult front;
    const Movd movd = BuildMolqOverlay(q, kBounds, opts, /*prune=*/false,
                                       &front);
    ASSERT_EQ(front.status, StatusCode::kOk);
    ASSERT_GT(movd.ovrs.size(), 128u);  // several scan chunks
    for (const size_t k : {size_t{1}, size_t{3}, size_t{10},
                           movd.ovrs.size() + 2}) {
      opts.exec.threads = 1;
      const MolqResult serial = TopKFromMovd(q, movd, k, opts);
      ASSERT_EQ(serial.ranked.size(), std::min(k, movd.ovrs.size()));
      EXPECT_EQ(serial.stats.optimizer.problems, movd.ovrs.size());
      for (const int threads : {2, 4, 7}) {
        opts.exec.threads = threads;
        const MolqResult r = TopKFromMovd(q, movd, k, opts);
        ASSERT_EQ(r.status, StatusCode::kOk);
        ASSERT_EQ(r.ranked.size(), serial.ranked.size());
        for (size_t i = 0; i < r.ranked.size(); ++i) {
          const SiteCandidate& a = r.ranked[i];
          const SiteCandidate& b = serial.ranked[i];
          EXPECT_EQ(std::bit_cast<uint64_t>(a.cost),
                    std::bit_cast<uint64_t>(b.cost))
              << "rank " << i << " threads=" << threads;
          EXPECT_EQ(std::bit_cast<uint64_t>(a.location.x),
                    std::bit_cast<uint64_t>(b.location.x));
          EXPECT_EQ(std::bit_cast<uint64_t>(a.location.y),
                    std::bit_cast<uint64_t>(b.location.y));
          EXPECT_EQ(a.group, b.group);
        }
      }
    }
  }
}

TEST(TopKTest, WeightedMethodReachesTheDiagramBuild) {
  // Per-object weights route every set through the weighted diagrams,
  // whose covers depend on the construction method. Top-k must build the
  // unpruned overlay of the requested method.
  MolqQuery q = RandomQuery({8, 7, 6}, 406);
  Rng rng(407);
  for (ObjectSet& set : q.sets) {
    for (SpatialObject& obj : set.objects) {
      obj.object_weight = rng.Uniform(0.5, 2.5);
    }
  }
  MolqOptions adaptive;
  adaptive.epsilon = 1e-6;
  adaptive.exec.weighted_grid_resolution = 64;
  MolqOptions dense = adaptive;
  dense.exec.weighted_method = WeightedMethod::kDenseGrid;
  // Top-k keeps the unpruned overlay, so its counts are those of the staged
  // unpruned OverlapAll over the basic MOVDs of the requested method.
  const auto unpruned_overlay = [&](const MolqOptions& options) {
    return OverlapAll(BuildAllBasic(q, kBounds, options),
                      BoundaryMode::kRealRegion);
  };
  const Movd overlay_dense = unpruned_overlay(dense);
  const Movd overlay_adaptive = unpruned_overlay(adaptive);
  // The instance must tell the two methods apart.
  ASSERT_NE(overlay_dense.MemoryBytes(BoundaryMode::kRealRegion),
            overlay_adaptive.MemoryBytes(BoundaryMode::kRealRegion));
  const MolqResult solve_dense = SolveMolq(q, kBounds, dense);
  for (const int threads : {1, 4}) {
    dense.exec.threads = threads;
    const MolqResult topk_dense = SolveMolqTopK(q, kBounds, 3, dense);
    EXPECT_EQ(topk_dense.stats.final_ovrs, overlay_dense.ovrs.size());
    EXPECT_EQ(topk_dense.stats.memory_bytes,
              overlay_dense.MemoryBytes(BoundaryMode::kRealRegion));
    ASSERT_FALSE(topk_dense.ranked.empty());
    EXPECT_EQ(topk_dense.ranked[0].group, solve_dense.group);
  }
}


TEST(TopKTest, TimesBothStagesAndRunsEveryAuditSeam) {
  // SolveMolqTopK builds its overlay through SolveMolq's front half, so it
  // reports both stage times and runs the per-set and post-overlay seams.
  const MolqQuery q = RandomQuery({12, 10, 8}, 408);
  for (const MolqAlgorithm algo :
       {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
    MolqOptions options;
    options.algorithm = algo;
    options.exec.audit = true;
    const MolqResult r = SolveMolqTopK(q, kBounds, 3, options);
    ASSERT_EQ(r.status, StatusCode::kOk);
    EXPECT_GT(r.stats.vd_seconds, 0.0);
    EXPECT_GT(r.stats.overlap_seconds, 0.0);
    EXPECT_TRUE(r.audit.ok()) << r.audit.Summary();

    // Every set's seams plus the overlay seam over the unpruned overlay.
    const BoundaryMode mode = algo == MolqAlgorithm::kRrb
                                  ? BoundaryMode::kRealRegion
                                  : BoundaryMode::kMbr;
    std::vector<Movd> basic;
    uint64_t set_checks = 0;
    for (size_t s = 0; s < q.sets.size(); ++s) {
      AuditReport set_audit;
      basic.push_back(BuildBasicMovd(q, static_cast<int32_t>(s), kBounds,
                                     options.exec.weighted_grid_resolution,
                                     1, &set_audit));
      set_checks += set_audit.checks();
    }
    const AuditReport overlay_audit =
        AuditMovdOverlay(OverlapAll(basic, mode), basic, mode, kBounds);
    ASSERT_GT(overlay_audit.checks(), 0u);
    EXPECT_EQ(r.audit.checks(), set_checks + overlay_audit.checks());
  }
}

}  // namespace
}  // namespace movd
