#include <algorithm>
#include <cmath>
#include <fstream>
#include <numbers>
#include <numeric>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "model/movd_model.h"
#include "core/molq.h"
#include "core/overlap.h"
#include "core/pruned_overlap.h"
#include "movd_test_util.h"
#include "audit/audit_overlay.h"
#include "query/constrained.h"
#include "serve/query_engine.h"
#include "storage/movd_file.h"
#include "trace/trace.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

Movd RandomBasicMovd(size_t sites, int32_t set, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < sites; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return MovdFromVoronoi(vd, set, ids);
}

// Canonical form for comparing MOVDs: (sorted pois, rounded mbr) pairs.
std::vector<std::string> Canonicalize(const Movd& movd) {
  std::vector<std::string> keys;
  for (const Ovr& ovr : movd.ovrs) {
    std::string k;
    for (const PoiRef& p : ovr.pois) {
      k += std::to_string(p.set) + ":" + std::to_string(p.object) + ";";
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "|%.6f,%.6f,%.6f,%.6f", ovr.mbr.min_x,
                  ovr.mbr.min_y, ovr.mbr.max_x, ovr.mbr.max_y);
    k += buf;
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(OverlapTest, IdentityLeavesMovdUnchanged) {
  const Movd m = RandomBasicMovd(10, 0, 71);
  const Movd id = IdentityMovd(kBounds);
  const Movd out = Overlap(m, id, BoundaryMode::kRealRegion);
  EXPECT_EQ(out.ovrs.size(), m.ovrs.size());
  double area = 0.0;
  for (const Ovr& ovr : out.ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-6 * kBounds.Area());
}

TEST(OverlapTest, TwoBisectedHalvesGiveFourQuadrants) {
  // MOVD A: left/right halves; MOVD B: bottom/top halves.
  const auto va = VoronoiDiagram::Build({{25, 50}, {75, 50}}, kBounds);
  const auto vb = VoronoiDiagram::Build({{50, 25}, {50, 75}}, kBounds);
  const Movd a = MovdFromVoronoi(va, 0, {0, 1});
  const Movd b = MovdFromVoronoi(vb, 1, {0, 1});
  OverlapStats stats;
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion, &stats);
  EXPECT_EQ(out.ovrs.size(), 4u);
  EXPECT_EQ(stats.output_ovrs, 4u);
  for (const Ovr& ovr : out.ovrs) {
    EXPECT_NEAR(ovr.region.Area(), 2500.0, 1e-9);
    EXPECT_EQ(ovr.pois.size(), 2u);
    EXPECT_EQ(ovr.pois[0].set, 0);
    EXPECT_EQ(ovr.pois[1].set, 1);
  }
}

class SweepVsBruteTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SweepVsBruteTest, RealRegionModeMatches) {
  const Movd a = RandomBasicMovd(GetParam(), 0, 72 + GetParam());
  const Movd b = RandomBasicMovd(GetParam() + 3, 1, 73 + GetParam());
  const Movd sweep = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd brute = OverlapBruteForce(a, b, BoundaryMode::kRealRegion);
  EXPECT_EQ(Canonicalize(sweep), Canonicalize(brute));
}

TEST_P(SweepVsBruteTest, MbrModeMatches) {
  const Movd a = RandomBasicMovd(GetParam(), 0, 74 + GetParam());
  const Movd b = RandomBasicMovd(GetParam() + 5, 1, 75 + GetParam());
  const Movd sweep = Overlap(a, b, BoundaryMode::kMbr);
  const Movd brute = OverlapBruteForce(a, b, BoundaryMode::kMbr);
  EXPECT_EQ(Canonicalize(sweep), Canonicalize(brute));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SweepVsBruteTest,
                         ::testing::Values(2, 5, 10, 40, 120));

TEST(OverlapTest, RrbOutputTilesTheBounds) {
  const Movd a = RandomBasicMovd(20, 0, 76);
  const Movd b = RandomBasicMovd(30, 1, 77);
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion);
  double area = 0.0;
  for (const Ovr& ovr : out.ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-4 * kBounds.Area());
}

TEST(OverlapTest, MbrbProducesAtLeastAsManyOvrsAsRrb) {
  const Movd a = RandomBasicMovd(25, 0, 78);
  const Movd b = RandomBasicMovd(25, 1, 79);
  const Movd rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd mbrb = Overlap(a, b, BoundaryMode::kMbr);
  // MBR hits are a superset of real-region hits (false positives).
  EXPECT_GE(mbrb.ovrs.size(), rrb.ovrs.size());
}

TEST(OverlapTest, MbrbMemorySmallerPerOvrThanRrb) {
  const Movd a = RandomBasicMovd(40, 0, 80);
  const Movd b = RandomBasicMovd(40, 1, 81);
  const Movd rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  const Movd mbrb = Overlap(a, b, BoundaryMode::kMbr);
  const double rrb_per =
      static_cast<double>(rrb.MemoryBytes(BoundaryMode::kRealRegion)) /
      rrb.ovrs.size();
  const double mbrb_per =
      static_cast<double>(mbrb.MemoryBytes(BoundaryMode::kMbr)) /
      mbrb.ovrs.size();
  // Fig. 13: an MBR is two points; real regions average > 4 vertices.
  EXPECT_LT(mbrb_per, rrb_per);
}

TEST(OverlapTest, StatsCountersAreConsistent) {
  const Movd a = RandomBasicMovd(15, 0, 82);
  const Movd b = RandomBasicMovd(15, 1, 83);
  OverlapStats stats;
  const Movd out = Overlap(a, b, BoundaryMode::kRealRegion, &stats);
  EXPECT_EQ(stats.events, 2 * (a.ovrs.size() + b.ovrs.size()));
  EXPECT_EQ(stats.output_ovrs, out.ovrs.size());
  EXPECT_GE(stats.candidate_pairs, stats.output_ovrs);
  EXPECT_EQ(stats.region_intersections, stats.candidate_pairs);
}

TEST(OverlapTest, OverlapAllFoldsThreeDiagrams) {
  const std::vector<Movd> inputs = {RandomBasicMovd(6, 0, 84),
                                    RandomBasicMovd(6, 1, 85),
                                    RandomBasicMovd(6, 2, 86)};
  const Movd out = OverlapAll(inputs, BoundaryMode::kRealRegion);
  for (const Ovr& ovr : out.ovrs) {
    ASSERT_EQ(ovr.pois.size(), 3u);
    EXPECT_EQ(ovr.pois[0].set, 0);
    EXPECT_EQ(ovr.pois[1].set, 1);
    EXPECT_EQ(ovr.pois[2].set, 2);
  }
  double area = 0.0;
  for (const Ovr& ovr : out.ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-4 * kBounds.Area());
}

TEST(OverlapTest, TouchingMbrsPairInMbrMode) {
  // Two OVRs sharing only a horizontal boundary line must still pair in
  // MBR mode (closed-rectangle semantics).
  Movd a, b;
  Ovr oa;
  oa.mbr = Rect(0, 0, 10, 5);
  oa.region = Region::FromRect(oa.mbr);
  oa.pois = {{0, 0}};
  a.ovrs.push_back(oa);
  Ovr ob;
  ob.mbr = Rect(0, 5, 10, 10);  // touches a at y = 5
  ob.region = Region::FromRect(ob.mbr);
  ob.pois = {{1, 0}};
  b.ovrs.push_back(ob);
  const Movd out = Overlap(a, b, BoundaryMode::kMbr);
  ASSERT_EQ(out.ovrs.size(), 1u);
  EXPECT_DOUBLE_EQ(out.ovrs[0].mbr.Area(), 0.0);
  // In real-region mode the sliver is dropped.
  const Movd out_rrb = Overlap(a, b, BoundaryMode::kRealRegion);
  EXPECT_TRUE(out_rrb.ovrs.empty());
}

// ---- Determinism of the chunked overlap pass across thread counts --------
//
// Named OverlapParallel* so the TSan job's *Parallel* filter runs them.

constexpr int kThreadCounts[] = {1, 2, 4, 7};
constexpr BoundaryMode kModes[] = {BoundaryMode::kRealRegion,
                                   BoundaryMode::kMbr};

// Runs Overlap at every thread count and expects the 1-thread MOVD and
// stats bit for bit. Returns the 1-thread stats for further checks.
OverlapStats ExpectOverlapThreadInvariant(const Movd& a, const Movd& b,
                                          BoundaryMode mode) {
  OverlapStats serial_stats;
  const Movd serial = Overlap(a, b, mode, &serial_stats, nullptr, 1);
  EXPECT_EQ(serial_stats.output_ovrs, serial.ovrs.size());
  for (const int threads : kThreadCounts) {
    OverlapStats stats;
    const Movd out = Overlap(a, b, mode, &stats, nullptr, threads);
    EXPECT_TRUE(BitIdentical(serial, out)) << "threads=" << threads;
    ExpectSameStats(serial_stats, stats);
  }
  return serial_stats;
}

void ExpectOverlapAllThreadInvariant(const std::vector<Movd>& inputs,
                                     BoundaryMode mode) {
  OverlapStats serial_stats;
  const Movd serial = OverlapAll(inputs, mode, &serial_stats, nullptr, 1);
  for (const int threads : kThreadCounts) {
    OverlapStats stats;
    const Movd out = OverlapAll(inputs, mode, &stats, nullptr, threads);
    EXPECT_TRUE(BitIdentical(serial, out)) << "threads=" << threads;
    ExpectSameStats(serial_stats, stats);
  }
}

Ovr RectOvr(const Rect& r, int32_t set, int32_t object) {
  Ovr ovr;
  ovr.mbr = r;
  ovr.region = Region::FromRect(r);
  ovr.pois = {{set, object}};
  return ovr;
}

// `count` unit squares side by side along y in [0, 1] against one strip
// covering them all: exactly `count` candidate pairs. Odd squares start
// above the strip, so their pairs are found by the strip's start event
// and even ones by their own.
std::pair<Movd, Movd> StripPairs(int count) {
  Movd squares, strip;
  for (int i = 0; i < count; ++i) {
    const double top = i % 2 == 0 ? 1.0 : 2.0;
    squares.ovrs.push_back(RectOvr(Rect(i, 0, i + 1, top), 0, i));
  }
  strip.ovrs.push_back(RectOvr(Rect(0, 0.25, count, 1.5), 1, 0));
  return {squares, strip};
}

MolqQuery PointQuery(size_t sets, size_t objects, uint64_t seed,
                     bool object_weights) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sets; ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (size_t i = 0; i < objects; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      if (object_weights) {
        obj.object_weight = rng.Uniform(0.5, 2.5);  // forces weighted path
      }
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

MolqQuery WeightedQuery(size_t sets, size_t objects, uint64_t seed) {
  return PointQuery(sets, objects, seed, true);
}

std::vector<Movd> BasicMovds(const MolqQuery& q) {
  std::vector<Movd> basic;
  for (size_t s = 0; s < q.sets.size(); ++s) {
    basic.push_back(BuildBasicMovd(q, static_cast<int32_t>(s), kBounds, 96));
  }
  return basic;
}

std::vector<Movd> WeightedBasicMovds(size_t sets, size_t objects,
                                     uint64_t seed) {
  return BasicMovds(WeightedQuery(sets, objects, seed));
}

// The documented order of Overlap, rebuilt from the brute force's
// candidate set: every pair whose closed MBRs meet, keyed by (finder start
// order, partner min_x, partner start order). An OVR's start order is
// (max_y descending, g ascending) with g = i for a's OVR i and |a| + j for
// b's OVR j, and a pair's finder is its later starter. Each pair is then
// pruned by `bound` or clipped finder-first.
struct OracleResult {
  Movd movd;
  OverlapStats stats;
};

OracleResult OracleOverlap(const Movd& a, const Movd& b, BoundaryMode mode,
                           const CombinationBound* bound) {
  const size_t na = a.ovrs.size();
  const auto mbr = [&](size_t g) -> const Rect& {
    return (g < na ? a.ovrs[g] : b.ovrs[g - na]).mbr;
  };
  std::vector<size_t> order(na + b.ovrs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (mbr(x).max_y != mbr(y).max_y) return mbr(x).max_y > mbr(y).max_y;
    return x < y;
  });
  std::vector<size_t> rank(order.size());
  for (size_t k = 0; k < order.size(); ++k) rank[order[k]] = k;

  // (finder rank, partner min_x, partner rank, a index, b index). A tuple
  // compares doubles with <, so -0.0 and +0.0 tie, as in a std::multimap.
  using Key = std::tuple<size_t, double, size_t, size_t, size_t>;
  std::vector<Key> pairs;
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < b.ovrs.size(); ++j) {
      if (!a.ovrs[i].mbr.Intersects(b.ovrs[j].mbr)) continue;
      const size_t gi = i, gj = na + j;
      const bool a_finds = rank[gi] > rank[gj];
      const size_t partner = a_finds ? gj : gi;
      pairs.emplace_back(std::max(rank[gi], rank[gj]), mbr(partner).min_x,
                         rank[partner], i, j);
    }
  }
  std::sort(pairs.begin(), pairs.end());

  OracleResult r;
  r.stats.events = 2 * order.size();
  r.stats.candidate_pairs = pairs.size();
  for (const Key& key : pairs) {
    const size_t i = std::get<3>(key);
    const Ovr& x = a.ovrs[i];
    const Ovr& y = b.ovrs[std::get<4>(key)];
    if (bound != nullptr && bound->Prunes(x.pois, y.pois)) {
      ++r.stats.pruned_pairs;
      continue;
    }
    if (mode == BoundaryMode::kRealRegion) ++r.stats.region_intersections;
    Ovr out;
    const bool a_finds = std::get<0>(key) == rank[i];
    if (a_finds ? IntersectOvrPair(x, y, mode, &out)
                : IntersectOvrPair(y, x, mode, &out)) {
      r.movd.ovrs.push_back(std::move(out));
    }
  }
  r.stats.output_ovrs = r.movd.ovrs.size();
  return r;
}

// Overlap at every thread count against the oracle, bit for bit, in each
// of `modes`, with and without `bound`. Returns the oracle's stats with the
// bound in the last mode.
OverlapStats ExpectMatchesOracle(
    const Movd& a, const Movd& b, const CombinationBound* bound,
    const std::vector<BoundaryMode>& modes = {BoundaryMode::kRealRegion,
                                              BoundaryMode::kMbr}) {
  std::vector<const CombinationBound*> bounds = {nullptr};
  if (bound != nullptr) bounds.push_back(bound);
  OverlapStats bounded;
  for (const BoundaryMode mode : modes) {
    for (const CombinationBound* with : bounds) {
      const OracleResult want = OracleOverlap(a, b, mode, with);
      EXPECT_EQ(want.stats.events, 2 * (a.ovrs.size() + b.ovrs.size()));
      if (with == bound) bounded = want.stats;
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE(::testing::Message()
                     << (mode == BoundaryMode::kMbr ? "mbrb" : "rrb")
                     << " bound=" << (with != nullptr)
                     << " threads=" << threads);
        OverlapStats stats;
        const Movd got = Overlap(a, b, mode, &stats, nullptr, threads, with);
        EXPECT_TRUE(BitIdentical(want.movd, got));
        ExpectSameStats(want.stats, stats);
      }
    }
  }
  // In MBRB every candidate is emitted, so the oracle's candidate set is
  // exactly the brute force's.
  EXPECT_EQ(OverlapBruteForce(a, b, BoundaryMode::kMbr).ovrs.size(),
            OracleOverlap(a, b, BoundaryMode::kMbr, nullptr).movd.ovrs.size());
  return bounded;
}

// Integer-grid rectangles in [-4, 4]^2 with many shared top edges and
// left edges, edges touching along the sweep line, and zeros of both
// signs.
Movd TieHeavyRects(size_t count, int32_t set, uint64_t seed) {
  Rng rng(seed);
  const auto grid = [&](double lo, double hi) {
    const double v = std::floor(rng.Uniform(lo, hi));
    return v == 0.0 && rng.Uniform(0, 1) < 0.5 ? -0.0 : v;
  };
  Movd m;
  for (size_t i = 0; i < count; ++i) {
    const double x0 = grid(-4, 3), y0 = grid(-4, 3);
    const double x1 = std::max(grid(-3, 5), x0 + 1);
    const double y1 = std::max(grid(-3, 5), y0 + 1);
    m.ovrs.push_back(RectOvr(Rect(x0, y0, x1, y1), set,
                             static_cast<int32_t>(i)));
  }
  return m;
}

// A query whose object (s, i) sits at the centre of OVR i of rects[s], so
// a CombinationBound over it judges the rectangles' poi pairs.
MolqQuery QueryAtCentres(const std::vector<Movd>& rects) {
  MolqQuery query;
  for (size_t s = 0; s < rects.size(); ++s) {
    ObjectSet set;
    set.name = std::string("t") += std::to_string(s);
    for (const Ovr& ovr : rects[s].ovrs) {
      SpatialObject obj;
      obj.location = ovr.mbr.Center();
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

// Runs one traced Overlap step and checks that its partner index held at
// most 4 ids per input OVR plus one per grid cell.
void ExpectPartnerIndexBounded(const Movd& a, const Movd& b) {
  Trace trace;
  {
    TraceContextScope scope(&trace);
    Overlap(a, b, BoundaryMode::kMbr, nullptr, nullptr, 2);
  }
  int64_t inputs = -1, entries = -1, cells = -1;
  for (const TraceSpanRecord& r : trace.Collect()) {
    if (r.name != "overlap_step") continue;
    for (const auto& [name, value] : r.counters) {
      if (name == "input_ovrs") inputs = value;
      if (name == "partner_index_entries") entries = value;
      if (name == "partner_index_cells") cells = value;
    }
  }
  EXPECT_EQ(inputs, static_cast<int64_t>(a.ovrs.size() + b.ovrs.size()));
  ASSERT_GE(entries, 0);
  ASSERT_GE(cells, 2);  // at least one cell per operand
  EXPECT_LE(entries, 4 * inputs + cells);
}

TEST(OverlapParallelTest, ManyChunksOfOrdinaryDiagrams) {
  const Movd a = RandomBasicMovd(600, 0, 91);
  const Movd b = RandomBasicMovd(500, 1, 92);
  for (const BoundaryMode mode : kModes) {
    const OverlapStats stats = ExpectOverlapThreadInvariant(a, b, mode);
    EXPECT_GT(stats.candidate_pairs, 8u * 256u);
  }
}

TEST(OverlapParallelTest, NoCandidatePairs) {
  Movd left, right;
  left.ovrs.push_back(RectOvr(Rect(0, 0, 10, 10), 0, 0));
  right.ovrs.push_back(RectOvr(Rect(50, 0, 60, 10), 1, 0));
  for (const BoundaryMode mode : kModes) {
    EXPECT_EQ(ExpectOverlapThreadInvariant(left, right, mode).candidate_pairs,
              0u);
    EXPECT_EQ(ExpectOverlapThreadInvariant(left, Movd(), mode).events, 2u);
  }
}

TEST(OverlapParallelTest, OneCandidatePair) {
  Movd a, b;
  a.ovrs.push_back(RectOvr(Rect(0, 0, 10, 10), 0, 0));
  b.ovrs.push_back(RectOvr(Rect(5, 5, 15, 15), 1, 0));
  for (const BoundaryMode mode : kModes) {
    const OverlapStats stats = ExpectOverlapThreadInvariant(a, b, mode);
    EXPECT_EQ(stats.candidate_pairs, 1u);
    EXPECT_EQ(stats.output_ovrs, 1u);
  }
}

TEST(OverlapParallelTest, ChunkEdgeAt256And257Pairs) {
  for (const int count : {255, 256, 257, 513}) {
    const auto [squares, strip] = StripPairs(count);
    for (const BoundaryMode mode : kModes) {
      for (const bool swap : {false, true}) {
        const Movd& a = swap ? strip : squares;
        const Movd& b = swap ? squares : strip;
        const OverlapStats stats = ExpectOverlapThreadInvariant(a, b, mode);
        EXPECT_EQ(stats.candidate_pairs, static_cast<uint64_t>(count));
        EXPECT_EQ(stats.output_ovrs, static_cast<uint64_t>(count));
      }
    }
  }
}

TEST(OverlapParallelTest, VisitingOrderAndOperandOrderAreKept) {
  // The strip's start event finds the odd squares' pairs, which are then
  // intersected strip-first; the output follows the sweep's visiting
  // order: odd squares by min x, then even squares as they start. The 601
  // finders span ten chunks, and the strip alone has 300 partners.
  constexpr int kCount = 600;
  const auto [squares, strip] = StripPairs(kCount);
  std::vector<int> order;
  for (int i = 1; i < kCount; i += 2) order.push_back(i);
  for (int i = 0; i < kCount; i += 2) order.push_back(i);
  Movd expected;
  for (const int i : order) {
    const Ovr& square = squares.ovrs[static_cast<size_t>(i)];
    Ovr ovr;
    ASSERT_TRUE(i % 2 == 1 ? IntersectOvrPair(strip.ovrs[0], square,
                                              BoundaryMode::kRealRegion, &ovr)
                           : IntersectOvrPair(square, strip.ovrs[0],
                                              BoundaryMode::kRealRegion,
                                              &ovr));
    expected.ovrs.push_back(std::move(ovr));
  }
  for (const int threads : kThreadCounts) {
    const Movd out = Overlap(squares, strip, BoundaryMode::kRealRegion,
                             nullptr, nullptr, threads);
    EXPECT_TRUE(BitIdentical(expected, out)) << "threads=" << threads;
  }
}

TEST(OverlapParallelTest, WeightedTriangulatedCovers) {
  const std::vector<Movd> basic = WeightedBasicMovds(2, 40, 93);
  for (const Movd& m : basic) {
    bool concave = false;
    for (const Ovr& ovr : m.ovrs) concave |= ovr.region.pieces().size() > 1;
    EXPECT_TRUE(concave) << "expected triangulated weighted cells";
  }
  for (const BoundaryMode mode : kModes) {
    const OverlapStats stats =
        ExpectOverlapThreadInvariant(basic[0], basic[1], mode);
    EXPECT_GT(stats.candidate_pairs, 256u);
  }
}

TEST(OverlapParallelTest, OverlapAllOrdinaryAndWeighted) {
  const std::vector<Movd> ordinary = {RandomBasicMovd(120, 0, 94),
                                      RandomBasicMovd(100, 1, 95),
                                      RandomBasicMovd(80, 2, 96)};
  const std::vector<Movd> weighted = WeightedBasicMovds(3, 20, 97);
  for (const BoundaryMode mode : kModes) {
    ExpectOverlapAllThreadInvariant(ordinary, mode);
    ExpectOverlapAllThreadInvariant(weighted, mode);
    ExpectOverlapAllThreadInvariant({ordinary[0]}, mode);
  }
}

TEST(OverlapParallelTest, MatchesSweepOrderOracle) {
  // Random ordinary and weighted diagrams, with the solve's bound.
  for (const bool weighted : {false, true}) {
    const MolqQuery q = PointQuery(2, weighted ? 30 : 250, 101, weighted);
    const std::vector<Movd> basic = BasicMovds(q);
    const CombinationBound bound(q, kBounds, 1e-3);
    EXPECT_GT(ExpectMatchesOracle(basic[0], basic[1], &bound).pruned_pairs,
              0u);
    ExpectMatchesOracle(basic[1], basic[0], &bound);
  }
  // Tie-heavy integer-grid rectangles, against each other and themselves.
  const std::vector<Movd> rects = {TieHeavyRects(200, 0, 102),
                                   TieHeavyRects(150, 1, 103)};
  const CombinationBound rect_bound(QueryAtCentres(rects),
                                    Rect(-5, -5, 5, 5), 1e-3);
  ExpectMatchesOracle(rects[0], rects[1], &rect_bound);
  ExpectMatchesOracle(rects[1], rects[0], &rect_bound);
  ExpectMatchesOracle(rects[0], rects[0], nullptr);
  // The identity MOVD against 2K cells, in both operand orders.
  const MolqQuery big = PointQuery(1, 2000, 104, false);
  const Movd cells = BasicMovds(big)[0];
  const CombinationBound big_bound(big, kBounds, 1e-3);
  ExpectMatchesOracle(IdentityMovd(kBounds), cells, &big_bound);
  ExpectMatchesOracle(cells, IdentityMovd(kBounds), &big_bound);
}

TEST(OverlapParallelTest, DegenerateExtentsStayBounded) {
  // MBR-only OVRs (what MBRB reads): at these scales a region's
  // orientation products overflow or underflow, so MBRB, which emits every
  // candidate pair, is the mode that compares the pairs.
  const auto mbr_ovr = [](const Rect& r, int32_t set, int32_t object) {
    Ovr ovr;
    ovr.mbr = r;
    ovr.pois = {{set, object}};
    return ovr;
  };
  // 100 squares of side `scale` on a 10x10 grid, `shift` sides from 0.
  const auto squares = [&](double scale, int32_t set, double shift) {
    Movd m;
    for (int i = 0; i < 100; ++i) {
      const double x = (i % 10 + shift) * scale, y = (i / 10 + shift) * scale;
      m.ovrs.push_back(mbr_ovr(Rect(x, y, x + scale, y + scale), set, i));
    }
    return m;
  };
  // Huge, tiny, and mixed scales; 1.5e308 corners overflow the extent.
  const Movd huge = squares(1e300, 0, 0.0);
  const Movd tiny = squares(1e-300, 1, 0.5);
  Movd mixed = squares(1e-300, 1, 0.25);
  mixed.ovrs.push_back(
      mbr_ovr(Rect(-1.5e308, -1.5e308, 1.5e308, 1.5e308), 1, 100));
  mixed.ovrs.push_back(mbr_ovr(Rect(-1e300, 0, 1e300, 1e-300), 1, 101));
  const std::vector<std::pair<const Movd*, const Movd*>> cases = {
      {&huge, &mixed}, {&tiny, &mixed}, {&huge, &tiny}};
  for (const auto& [a, b] : cases) {
    ExpectMatchesOracle(*a, *b, nullptr, {BoundaryMode::kMbr});
    ExpectMatchesOracle(*b, *a, nullptr, {BoundaryMode::kMbr});
    ExpectPartnerIndexBounded(*a, *b);
  }

  // One OVR spanning the world against 5K cells.
  Movd world;
  world.ovrs.push_back(RectOvr(kBounds, 0, 0));
  const Movd cells = RandomBasicMovd(5000, 1, 105);
  ExpectMatchesOracle(world, cells, nullptr);
  ExpectPartnerIndexBounded(world, cells);
  ExpectPartnerIndexBounded(cells, world);

  // 40 world-spanning OVRs among 1K cells: a grid shaped by the mean MBR
  // holds too many ids and must be coarsened.
  Movd skewed = RandomBasicMovd(1000, 0, 107);
  for (int i = 0; i < 40; ++i) {
    skewed.ovrs.push_back(RectOvr(kBounds, 0, 1000 + i));
  }
  const Movd small = RandomBasicMovd(30, 1, 108);
  ExpectMatchesOracle(skewed, small, nullptr);
  ExpectPartnerIndexBounded(skewed, small);

  // 1K identical MBRs against an ordinary diagram.
  Movd same;
  for (int i = 0; i < 1000; ++i) {
    same.ovrs.push_back(RectOvr(Rect(40, 40, 60, 60), 0, i));
  }
  const Movd few = RandomBasicMovd(40, 1, 106);
  ExpectMatchesOracle(same, few, nullptr);
  ExpectPartnerIndexBounded(same, few);
  ExpectPartnerIndexBounded(few, same);
}

TEST(OverlapParallelTest, RealRegionsClipAtExtremeScales) {
  // Real regions at 1e300 and 1e-300: hexagons with no axis-parallel
  // edge build through the checked ConvexPolygon constructor, whose
  // convexity check runs on a power-of-two scaled copy (unscaled, its
  // Orient2D products overflow to inf - inf), and RRB clips every
  // candidate pair.
  const auto hexagons = [](double scale, int32_t set, double shift) {
    Movd m;
    for (int i = 0; i < 100; ++i) {
      const double cx = (i % 10 + shift) * scale;
      const double cy = (i / 10 + shift) * scale;
      std::vector<Point> ring;
      for (int k = 0; k < 6; ++k) {
        const double angle = (10.0 + 60.0 * k) * std::numbers::pi / 180.0;
        ring.push_back({cx + 0.7 * scale * std::cos(angle),
                        cy + 0.7 * scale * std::sin(angle)});
      }
      const ConvexPolygon hexagon(std::move(ring));
      Ovr ovr;
      ovr.mbr = hexagon.Bbox();
      ovr.region = Region::FromConvex(hexagon);
      ovr.pois = {{set, i}};
      m.ovrs.push_back(std::move(ovr));
    }
    return m;
  };
  for (const double scale : {1e300, 1e-300}) {
    const Movd a = hexagons(scale, 0, 0.0);
    const Movd b = hexagons(scale, 1, 0.5);
    const OverlapStats stats =
        ExpectMatchesOracle(a, b, nullptr, {BoundaryMode::kRealRegion});
    EXPECT_GT(stats.region_intersections, 0u);
    ExpectMatchesOracle(b, a, nullptr, {BoundaryMode::kRealRegion});
  }
  // Ordinary diagrams of random sites scaled by 2^+-250 (their cells
  // clip through Orient2D unscaled, which holds up to about that scale).
  const auto diagram = [](int exponent, int32_t set, uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> pts;
    for (int i = 0; i < 80; ++i) {
      pts.push_back({std::ldexp(rng.Uniform(0, 100), exponent),
                     std::ldexp(rng.Uniform(0, 100), exponent)});
    }
    const Rect bounds(0, 0, std::ldexp(100.0, exponent),
                      std::ldexp(100.0, exponent));
    const auto vd = VoronoiDiagram::Build(pts, bounds);
    std::vector<int32_t> ids(vd.sites().size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
    return MovdFromVoronoi(vd, set, ids);
  };
  for (const int exponent : {250, -250}) {
    const Movd a = diagram(exponent, 0, 109);
    const Movd b = diagram(exponent, 1, 110);
    ASSERT_FALSE(a.ovrs.empty());
    const OverlapStats stats =
        ExpectMatchesOracle(a, b, nullptr, {BoundaryMode::kRealRegion});
    EXPECT_GT(stats.region_intersections, 0u);
  }
}

TEST(OverlapParallelTest, PreFiredTokenIntersectsNoPair) {
  const Movd a = RandomBasicMovd(60, 0, 98);
  const Movd b = RandomBasicMovd(60, 1, 99);
  CancelToken token;
  token.Cancel();
  MolqQuery query = WeightedQuery(3, 12, 100);
  for (const int threads : {1, 4}) {
    OverlapStats stats;
    const Movd out =
        Overlap(a, b, BoundaryMode::kRealRegion, &stats, &token, threads);
    EXPECT_TRUE(out.ovrs.empty());
    EXPECT_EQ(stats.region_intersections, 0u);
    EXPECT_EQ(stats.output_ovrs, 0u);

    OverlapStats all_stats;
    EXPECT_TRUE(OverlapAll({a, b, a}, BoundaryMode::kRealRegion, &all_stats,
                           &token, threads)
                    .ovrs.empty());
    EXPECT_EQ(all_stats.region_intersections, 0u);

    MolqOptions options;
    options.exec.threads = threads;
    options.exec.cancel = &token;
    EXPECT_EQ(SolveMolq(query, kBounds, options).status,
              StatusCode::kCancelled);
  }
}

// ---------------------------------------------------------------------------
// The overlay invariant (model/movd_model.h): every overlay the pipeline
// builds holds each poi group in one OVR.

constexpr Rect kGridWorld(0, 0, 500, 500);

// `sets` sets of `objects` sites on a 50-unit grid, so locations repeat
// within a set (object 1 always sits on object 0) and tie across sets.
// With `weighted`, object weights from {1, 2} route every set through the
// weighted diagram.
MolqQuery GridQuery(size_t sets, size_t objects, uint64_t seed,
                    bool weighted) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sets; ++s) {
    ObjectSet set;
    set.name = std::string("g") += std::to_string(s);
    for (size_t i = 0; i < objects; ++i) {
      SpatialObject obj;
      obj.location = {50.0 * static_cast<double>(1 + rng.NextBelow(9)),
                      50.0 * static_cast<double>(1 + rng.NextBelow(9))};
      if (i == 1) obj.location = set.objects[0].location;
      if (weighted) obj.object_weight = 1.0 + static_cast<double>(i % 2);
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

QueryConstraint TriangleConstraint() {
  QueryConstraint constraint;
  constraint.boundary = Polygon({{100, 100}, {400, 120}, {250, 400}});
  return constraint;
}

TEST(OverlayInvariantTest, PipelineOverlaysHoldEachGroupOnce) {
  const Region feasible =
      BuildFeasibleRegion(TriangleConstraint(), kGridWorld);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (size_t types = 2; types <= 4; ++types) {
      for (const bool weighted : {false, true}) {
        const MolqQuery query = GridQuery(types, 12, seed, weighted);
        for (const auto algorithm :
             {MolqAlgorithm::kRrb, MolqAlgorithm::kMbrb}) {
          for (const bool prune : {false, true}) {
            MolqOptions options;
            options.algorithm = algorithm;
            MolqResult front;
            const Movd overlay =
                BuildMolqOverlay(query, kGridWorld, options, prune, &front);
            ASSERT_EQ(front.status, StatusCode::kOk);
            const std::string tag =
                "seed " + std::to_string(seed) + " types " +
                std::to_string(types) + (weighted ? " weighted" : "") +
                (algorithm == MolqAlgorithm::kMbrb ? " mbrb" : " rrb") +
                (prune ? " pruned" : "");
            EXPECT_TRUE(AuditUniqueGroups(overlay).ok()) << tag;
            if (algorithm == MolqAlgorithm::kRrb) {
              EXPECT_TRUE(AuditUniqueGroups(
                              ClipMovdToFeasible(overlay, feasible))
                              .ok())
                  << tag << " clipped";
            }
          }
        }
      }
    }
  }
}

TEST(OverlayInvariantTest, ServedOverlaysHoldEachGroupOnceAfterMutations) {
  const MolqQuery query = GridQuery(3, 12, 41, false);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kGridWorld);
  std::vector<EngineRequest> requests(3);
  for (EngineRequest& request : requests) request.dataset = "d";
  requests[1].op = SolveSpec{MolqAlgorithm::kMbrb, 3};
  requests[2].op = ConstrainSpec{TriangleConstraint()};

  // Serves every shape, then checks every cached artifact: basics, the
  // RRB/MBRB overlays (patched in place by a mutation) and the clip.
  const auto serve_and_check = [&](const std::string& stage) {
    for (const EngineRequest& request : requests) {
      ASSERT_EQ(engine.Handle(request).status, ServeStatus::kOk) << stage;
    }
    const std::string dir =
        ::testing::TempDir() + "/overlay_invariant_" + stage;
    ASSERT_TRUE(engine.SaveCache(dir).ok());
    std::ifstream manifest(dir + "/manifest.txt");
    std::string line;
    size_t artifacts = 0;
    while (std::getline(manifest, line)) {
      const size_t tab = line.find('\t');
      const StatusOr<Movd> movd = LoadMovd(dir + "/" + line.substr(0, tab));
      ASSERT_TRUE(movd.has_value()) << stage << " " << line;
      EXPECT_TRUE(AuditUniqueGroups(*movd).ok()) << stage << " " << line;
      ++artifacts;
    }
    EXPECT_GE(artifacts, 6u) << stage;  // 3 basics, 2 overlays, 1 clip
  };
  const auto mutate = [&](MutationKind kind, int32_t layer, Point at) {
    EngineRequest request;
    request.dataset = "d";
    request.op = SiteMutation{kind, layer, at};
    const ServeResponse applied = engine.Handle(request);
    ASSERT_EQ(applied.status, ServeStatus::kOk) << applied.error;
    EXPECT_GT(applied.mutation.patched_artifacts, 0u);
  };

  serve_and_check("built");
  // An INSERT onto a grid point another layer already uses, then a DELETE.
  mutate(MutationKind::kInsert, 0, query.sets[1].objects[2].location);
  serve_and_check("insert");
  mutate(MutationKind::kDelete, 2, query.sets[2].objects[3].location);
  serve_and_check("delete");
}

}  // namespace
}  // namespace movd
