#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "fermat/batch.h"
#include "fermat/fermat_weber.h"
#include "geom/predicates.h"
#include "geom/rect.h"
#include "util/rng.h"

namespace movd {
namespace {

std::vector<WeightedPoint> RandomProblem(size_t n, Rng* rng) {
  std::vector<WeightedPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({{rng->Uniform(0, 10), rng->Uniform(0, 10)},
                   rng->Uniform(0.1, 10.0)});
  }
  return pts;
}

// Reference optimum: Weiszfeld to a 1e-12 stopping rule, closed forms off.
double ReferenceCost(const std::vector<WeightedPoint>& pts) {
  FermatWeberOptions opts;
  opts.epsilon = 1e-12;
  opts.use_exact_special_cases = false;
  return SolveFermatWeber(pts, opts).cost;
}

// Reference: coarse-to-fine grid minimisation of the cost function.
Point GridMinimize(const std::vector<WeightedPoint>& pts) {
  Rect box;
  for (const auto& p : pts) box.Expand(p.location);
  box = Rect(box.min_x - 1, box.min_y - 1, box.max_x + 1, box.max_y + 1);
  Point best = box.Center();
  double best_cost = FermatWeberCost(pts, best);
  double span = std::max(box.Width(), box.Height());
  for (int round = 0; round < 12; ++round) {
    for (int gx = -10; gx <= 10; ++gx) {
      for (int gy = -10; gy <= 10; ++gy) {
        const Point q{best.x + gx * span / 20.0, best.y + gy * span / 20.0};
        const double c = FermatWeberCost(pts, q);
        if (c < best_cost) {
          best_cost = c;
          best = q;
        }
      }
    }
    span /= 8.0;
  }
  return best;
}

TEST(FermatWeberCostTest, SinglePoint) {
  const std::vector<WeightedPoint> pts = {{{3, 4}, 2.0}};
  EXPECT_DOUBLE_EQ(FermatWeberCost(pts, {0, 0}), 10.0);
  EXPECT_DOUBLE_EQ(FermatWeberCost(pts, {3, 4}), 0.0);
}

TEST(LowerBoundTest, NeverExceedsOptimalCost) {
  Rng rng(61);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pts = RandomProblem(3 + rng.NextBelow(6), &rng);
    const Point opt = GridMinimize(pts);
    const double opt_cost = FermatWeberCost(pts, opt);
    for (int probe = 0; probe < 10; ++probe) {
      const Point at{rng.Uniform(-2, 12), rng.Uniform(-2, 12)};
      EXPECT_LE(FermatWeberLowerBound(pts, at), opt_cost * (1.0 + 1e-9));
    }
  }
}

TEST(LowerBoundTest, TightAtTheOptimum) {
  Rng rng(62);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = RandomProblem(5, &rng);
    FermatWeberOptions opts;
    opts.epsilon = 1e-12;
    const auto r = SolveFermatWeber(pts, opts);
    const double lb = FermatWeberLowerBound(pts, r.location);
    // Eq. 10 is asymptotically tight: at the optimum the per-axis weighted
    // medians reproduce the full cost.
    EXPECT_NEAR(lb, r.cost, 1e-6 * r.cost);
  }
}

TEST(CollinearTest, WeightedMedianOnALine) {
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{1, 1}, 1.0}, {{2, 2}, 5.0}, {{3, 3}, 1.0}};
  const auto r = SolveCollinear(pts);
  ASSERT_TRUE(r.has_value());
  // The heavy point dominates: optimum at (2, 2).
  EXPECT_NEAR(r->x, 2.0, 1e-12);
  EXPECT_NEAR(r->y, 2.0, 1e-12);
}

TEST(CollinearTest, VerticalLine) {
  const std::vector<WeightedPoint> pts = {
      {{5, 0}, 1.0}, {{5, 4}, 1.0}, {{5, 10}, 1.0}};
  const auto r = SolveCollinear(pts);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x, 5.0, 1e-12);
  EXPECT_NEAR(r->y, 4.0, 1e-12);  // median of three
}

TEST(CollinearTest, RejectsNonCollinear) {
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{1, 0}, 1.0}, {{0, 1}, 1.0}};
  EXPECT_FALSE(SolveCollinear(pts).has_value());
}

TEST(CollinearTest, AllPointsIdentical) {
  const std::vector<WeightedPoint> pts = {{{2, 3}, 1.0}, {{2, 3}, 7.0}};
  const auto r = SolveCollinear(pts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, Point(2, 3));
}

TEST(SolveTriangleTest, EquilateralTriangleCentroid) {
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{1, 0}, 1.0}, {{0.5, std::sqrt(3.0) / 2.0}, 1.0}};
  const FermatWeberResult r = SolveTriangle(pts);
  EXPECT_NEAR(r.location.x, 0.5, 1e-12);
  EXPECT_NEAR(r.location.y, std::sqrt(3.0) / 6.0, 1e-12);
  EXPECT_EQ(r.iterations, 0);
}

TEST(SolveTriangleTest, EqualWeightsMatchIterativeSolution) {
  Rng rng(63);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<WeightedPoint> pts = {
        {{rng.Uniform(0, 10), rng.Uniform(0, 10)}, 1.0},
        {{rng.Uniform(0, 10), rng.Uniform(0, 10)}, 1.0},
        {{rng.Uniform(0, 10), rng.Uniform(0, 10)}, 1.0}};
    const FermatWeberResult t = SolveTriangle(pts);
    EXPECT_NEAR(t.cost, ReferenceCost(pts), 1e-7 * t.cost);
  }
}

TEST(SolveTriangleTest, SliverTriangleStaysOnTheSegment) {
  // c sits a denormal above the segment ab, so the triple fails the exact
  // collinearity test. The result must be finite; any point on the segment
  // is optimal with cost 1.
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{1, 0}, 1.0}, {{0.5, 1e-30}, 1.0}};
  ASSERT_NE(Orient2D(pts[0].location, pts[1].location, pts[2].location), 0.0);
  const Point t = SolveTriangle(pts).location;
  ASSERT_TRUE(std::isfinite(t.x));
  ASSERT_TRUE(std::isfinite(t.y));
  EXPECT_NEAR(FermatWeberCost(pts, t), 1.0, 1e-9);
  EXPECT_NEAR(t.y, 0.0, 1e-9);
}

TEST(SolveTriangleTest, SliverSweepStaysFiniteAndNearOptimal) {
  for (const double height : {1e-18, 1e-22, 1e-26, 1e-30}) {
    for (const double x : {0.2, 0.5, 0.8}) {
      const std::vector<WeightedPoint> pts = {
          {{0, 0}, 1.0}, {{1, 0}, 1.0}, {{x, height}, 1.0}};
      const Point t = SolveTriangle(pts).location;
      ASSERT_TRUE(std::isfinite(t.x)) << "h=" << height << " x=" << x;
      ASSERT_TRUE(std::isfinite(t.y)) << "h=" << height << " x=" << x;
      EXPECT_NEAR(FermatWeberCost(pts, t), 1.0, 1e-9)
          << "h=" << height << " x=" << x;
    }
  }
}

TEST(SolveTriangleTest, ObtuseVertexWins) {
  // Angle at a is far beyond 120 degrees: the optimum is the vertex a.
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.0}, {{10, 0.5}, 1.0}, {{-10, 0.5}, 1.0}};
  EXPECT_EQ(SolveTriangle(pts).location, Point(0, 0));
}

TEST(SolveTriangleTest, HeavyVertexWins) {
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 10.0}, {{1, 0}, 1.0}, {{0, 1}, 1.0}};
  EXPECT_EQ(SolveTriangle(pts).location, Point(0, 0));
}

// Fixed degenerate triangle families: every SolveTriangle answer must be
// finite, no worse than the reference optimum (within its 1e-12 stopping
// rule) and no worse than the best vertex. Problems are stored at unit size
// and solved multiplied by `scale`; the reference runs on the unit copy,
// because near 1e-150 the cost itself loses distances that underflow.
struct TriangleFamily {
  std::string name;
  double scale = 1.0;
  std::vector<std::vector<WeightedPoint>> problems;
};

std::vector<WeightedPoint> RandomTriangle(Rng* rng, double min_w,
                                          double max_w) {
  std::vector<WeightedPoint> pts;
  for (int i = 0; i < 3; ++i) {
    pts.push_back({{rng->Uniform(0, 10), rng->Uniform(0, 10)},
                   rng->Uniform(min_w, max_w)});
  }
  return pts;
}

// Sets the weight of vertex j to `factor` times the pull of the other two
// at it; the optimum leaves vertex j exactly when factor < 1.
void SetNearVertexDominance(std::vector<WeightedPoint>* pts, size_t j,
                            double factor) {
  Point pull{0, 0};
  for (size_t i = 0; i < 3; ++i) {
    if (i == j) continue;
    const Point d = (*pts)[i].location - (*pts)[j].location;
    pull = pull + d * ((*pts)[i].weight / d.Norm());
  }
  (*pts)[j].weight = pull.Norm() * factor;
}

std::vector<TriangleFamily> DegenerateTriangleFamilies() {
  constexpr int kPerFamily = 200;
  Rng rng(75);
  std::vector<TriangleFamily> families;
  auto add = [&](std::string name, const auto& make, double scale = 1.0) {
    TriangleFamily f{std::move(name), scale, {}};
    for (int i = 0; i < kPerFamily; ++i) f.problems.push_back(make());
    families.push_back(std::move(f));
  };
  const auto uniform = [&] { return RandomTriangle(&rng, 0.1, 10.0); };
  add("uniform", uniform);
  add("uniform_equal", [&] { return RandomTriangle(&rng, 1.0, 1.0); });
  add("scale_1e-150", uniform, 1e-150);
  add("scale_1e150", uniform, 1e150);
  add("weight_ratio_0.01_100", [&] {
    auto pts = RandomTriangle(&rng, 1.0, 1.0);
    for (auto& p : pts) p.weight = std::pow(10.0, rng.Uniform(-1, 1));
    return pts;
  });
  add("weights_within_1e-4",
      [&] { return RandomTriangle(&rng, 1.0 - 5e-5, 1.0 + 5e-5); });
  add("vertex_dominance_boundary", [&] {
    auto pts = uniform();
    SetNearVertexDominance(&pts, rng.NextBelow(3),
                           1.0 + rng.Uniform(-1e-3, 1e-3));
    return pts;
  });
  for (const double h : {1e-3, 1e-6, 1e-12}) {
    // Apex at height h over (or beside) the unit base. A light apex keeps
    // the optimum interior; heavier ones put it on a vertex.
    add("sliver_h=" + std::to_string(h), [&] {
      const Point apex{rng.Uniform(-0.5, 1.5), h};
      const double apex_w = rng.NextBelow(2) == 0
                                ? h * rng.Uniform(0.01, 2.0)
                                : std::pow(10.0, rng.Uniform(-1, 1));
      return std::vector<WeightedPoint>{
          {{0, 0}, 1.0}, {{1, 0}, 1.0}, {apex, apex_w}};
    });
  }
  return families;
}

TEST(SolveTriangleStressTest, DegenerateFamiliesStayOptimal) {
  for (const TriangleFamily& f : DegenerateTriangleFamilies()) {
    for (size_t i = 0; i < f.problems.size(); ++i) {
      std::vector<WeightedPoint> pts = f.problems[i];
      for (WeightedPoint& p : pts) p.location = p.location * f.scale;
      const FermatWeberResult r = SolveTriangle(pts);
      ASSERT_TRUE(std::isfinite(r.location.x) && std::isfinite(r.location.y))
          << f.name << " #" << i;
      EXPECT_EQ(r.cost, FermatWeberCost(pts, r.location))
          << f.name << " #" << i;
      // The closed form (or a vertex) holds on all of these; the fallback
      // is for the far more extreme inputs of the next test.
      EXPECT_EQ(r.iterations, 0) << f.name << " #" << i;
      EXPECT_LE(r.cost,
                f.scale * ReferenceCost(f.problems[i]) * (1.0 + 1e-12))
          << f.name << " #" << i;
      for (const WeightedPoint& v : pts) {
        EXPECT_LE(r.cost, FermatWeberCost(pts, v.location))
            << f.name << " #" << i;
      }
    }
  }
}

TEST(SolveTriangleStressTest, FallbackIsBoundedAndCounted) {
  // A weight 1e-12 short of dominating its vertex puts the optimum about
  // 1e-12 from it, where the closed form's rounding fails the residual
  // check and the bounded Weiszfeld fallback takes over.
  Rng rng(76);
  int fallbacks = 0;
  for (int i = 0; i < 200; ++i) {
    auto pts = RandomTriangle(&rng, 0.1, 10.0);
    SetNearVertexDominance(&pts, 0, 1.0 - 1e-12);
    const FermatWeberResult r = SolveTriangle(pts);
    EXPECT_LE(r.iterations, 64);
    EXPECT_LE(r.cost, ReferenceCost(pts) * (1.0 + 1e-12));
    for (const WeightedPoint& v : pts) {
      EXPECT_LE(r.cost, FermatWeberCost(pts, v.location));
    }
    if (r.iterations > 0) ++fallbacks;
  }
  EXPECT_GT(fallbacks, 0);
}

class WeiszfeldConvergenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(WeiszfeldConvergenceTest, ConvergesToGridOptimum) {
  const auto [n, epsilon] = GetParam();
  Rng rng(64 + n);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = RandomProblem(n, &rng);
    FermatWeberOptions opts;
    opts.epsilon = epsilon;
    const auto r = SolveFermatWeber(pts, opts);
    EXPECT_TRUE(r.converged);
    const double reference = FermatWeberCost(pts, GridMinimize(pts));
    // The stopping rule guarantees cost <= (1 + eps) * optimum.
    EXPECT_LE(r.cost, (1.0 + epsilon) * reference + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEpsilons, WeiszfeldConvergenceTest,
    ::testing::Combine(::testing::Values<size_t>(4, 5, 8, 16),
                       ::testing::Values(1e-2, 1e-3, 1e-5)));

TEST(WeiszfeldTest, IterateLandingOnDemandPointEscapes) {
  // Centroid of this configuration coincides with a (non-optimal) demand
  // point; the Vardi–Zhang step must escape it.
  const std::vector<WeightedPoint> pts = {{{0, 0}, 1.0},
                                          {{4, 0}, 1.0},
                                          {{-4, 0}, 1.0},
                                          {{0, 4}, 1.0},
                                          {{0, -4}, 1.0}};
  FermatWeberOptions opts;
  opts.epsilon = 1e-10;
  const auto r = SolveFermatWeber(pts, opts);
  // (0, 0) is actually optimal here (symmetric); verify the vertex case.
  EXPECT_NEAR(r.location.x, 0.0, 1e-9);
  EXPECT_NEAR(r.location.y, 0.0, 1e-9);
  // Now make it non-optimal by moving weight off-center.
  const std::vector<WeightedPoint> pts2 = {{{0, 0}, 0.1},
                                           {{4, 0}, 5.0},
                                           {{-4, 0}, 1.0},
                                           {{0, 4}, 1.0},
                                           {{0, -4}, 1.0}};
  const auto r2 = SolveFermatWeber(pts2, opts);
  EXPECT_GT(r2.location.x, 0.5);  // dragged toward the heavy point
}

TEST(RelaxationTest, AcceleratedSolveFindsSameOptimum) {
  Rng rng(69);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pts = RandomProblem(6, &rng);
    FermatWeberOptions plain;
    plain.epsilon = 1e-8;
    FermatWeberOptions fast = plain;
    fast.relaxation = 1.8;
    const auto a = SolveFermatWeber(pts, plain);
    const auto b = SolveFermatWeber(pts, fast);
    EXPECT_NEAR(a.cost, b.cost, 1e-6 * a.cost);
  }
}

TEST(RelaxationTest, AcceleratedSolveUsesFewerIterationsOnAverage) {
  Rng rng(70);
  uint64_t plain_iters = 0, fast_iters = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto pts = RandomProblem(8, &rng);
    FermatWeberOptions plain;
    plain.epsilon = 1e-9;
    FermatWeberOptions fast = plain;
    fast.relaxation = 1.8;
    plain_iters += SolveFermatWeber(pts, plain).iterations;
    fast_iters += SolveFermatWeber(pts, fast).iterations;
  }
  EXPECT_LT(fast_iters, plain_iters);
}

TEST(CostBoundTest, PrunesWhenBoundUnbeatable) {
  // The constant offset alone uses up the bound, so any positive lower
  // bound proves the problem cannot beat it.
  Rng rng(65);
  const auto pts = RandomProblem(6, &rng);
  std::atomic<double> bound{1.0};
  FermatWeberOptions opts;
  opts.shared_cost_bound = &bound;
  opts.shared_bound_offset = 1.0;
  const auto r = SolveFermatWeber(pts, opts);
  EXPECT_TRUE(r.pruned);
  EXPECT_LE(r.iterations, 2);
}

TEST(CostBoundTest, DoesNotPruneTheActualWinner) {
  Rng rng(66);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = RandomProblem(5, &rng);
    FermatWeberOptions no_bound;
    no_bound.epsilon = 1e-6;
    const auto base = SolveFermatWeber(pts, no_bound);
    std::atomic<double> bound{base.cost * 1.001};  // barely above it
    FermatWeberOptions with_bound = no_bound;
    with_bound.shared_cost_bound = &bound;
    const auto r = SolveFermatWeber(pts, with_bound);
    EXPECT_FALSE(r.pruned);
    EXPECT_NEAR(r.cost, base.cost, 1e-3 * base.cost);
  }
}

TEST(CancelTest, PreFiredTokenStopsTheWeiszfeldLoop) {
  // The heavy point's weight sits just below the 1.2191 pull of the other
  // five, so the optimum lies just off it, where Weiszfeld crawls; with
  // epsilon = 1e-300 never met, an uncancelled solve runs thousands of
  // iterations to its numerical fixed point.
  const std::vector<WeightedPoint> pts = {
      {{0, 0}, 1.2178}, {{1, 0}, 1},     {{0, 1}, 1},
      {{-1, 0.1}, 1},   {{0.2, -1}, 1}, {{3, 4}, 1}};
  FermatWeberOptions opts;
  opts.epsilon = 1e-300;
  ASSERT_GT(SolveFermatWeber(pts, opts).iterations, 256);
  CancelToken token;
  token.Cancel();
  opts.cancel = &token;
  const auto r = SolveFermatWeber(pts, opts);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, 256);
}

TEST(SharedBoundTest, BoundBelowOptimumPrunes) {
  Rng rng(71);
  const auto pts = RandomProblem(6, &rng);
  std::atomic<double> bound{0.0};  // nothing can beat a zero bound
  FermatWeberOptions opts;
  opts.shared_cost_bound = &bound;
  const auto r = SolveFermatWeber(pts, opts);
  EXPECT_TRUE(r.pruned);
  EXPECT_LE(r.iterations, 2);
}

TEST(SharedBoundTest, TiedBoundDoesNotPruneAndIsBitIdentical) {
  // The determinism linchpin: a shared bound exactly equal to the solution
  // cost must never fire (strict comparison), because the Eq. 10 lower
  // bound never exceeds the optimum, which never exceeds the achieved
  // cost. The iterate path is then identical to the unbounded run.
  Rng rng(72);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = RandomProblem(5, &rng);
    FermatWeberOptions base;
    base.epsilon = 1e-3;
    const auto unbounded = SolveFermatWeber(pts, base);
    std::atomic<double> bound{unbounded.cost};
    FermatWeberOptions tied = base;
    tied.shared_cost_bound = &bound;
    const auto r = SolveFermatWeber(pts, tied);
    EXPECT_FALSE(r.pruned);
    EXPECT_EQ(r.cost, unbounded.cost);
    EXPECT_EQ(r.location.x, unbounded.location.x);
    EXPECT_EQ(r.location.y, unbounded.location.y);
    EXPECT_EQ(r.iterations, unbounded.iterations);
  }
}

TEST(SharedBoundTest, OffsetShiftsTheComparison) {
  // The bound lives in total-cost space; the solver sees raw Fermat–Weber
  // costs plus a constant offset. A bound tied at (cost + offset) must not
  // prune; a bound strictly below it must.
  Rng rng(73);
  const auto pts = RandomProblem(5, &rng);
  FermatWeberOptions base;
  base.epsilon = 1e-3;
  const auto plain = SolveFermatWeber(pts, base);
  const double offset = 7.25;
  std::atomic<double> tied_bound{plain.cost + offset};
  FermatWeberOptions opts = base;
  opts.shared_cost_bound = &tied_bound;
  opts.shared_bound_offset = offset;
  const auto kept = SolveFermatWeber(pts, opts);
  EXPECT_FALSE(kept.pruned);
  EXPECT_EQ(kept.cost, plain.cost);
  std::atomic<double> low_bound{offset};  // lb + offset > offset immediately
  opts.shared_cost_bound = &low_bound;
  const auto cut = SolveFermatWeber(pts, opts);
  EXPECT_TRUE(cut.pruned);
}

TEST(CancelTest, PreFiredTokenStopsTheBatch) {
  Rng rng(75);
  std::vector<std::vector<WeightedPoint>> problems;
  for (int i = 0; i < 200; ++i) problems.push_back(RandomProblem(5, &rng));
  CancelToken token;
  token.Cancel();
  for (const int threads : {1, 4}) {
    BatchOptions opts;
    opts.exec.threads = threads;
    opts.exec.cancel = &token;
    const BatchResult r = SolveFermatWeberBatch(problems, opts);
    EXPECT_TRUE(r.cancelled) << "threads=" << threads;
    EXPECT_TRUE(r.best.empty()) << "threads=" << threads;
    EXPECT_EQ(r.stats.problems, 0u) << "threads=" << threads;
  }
}

// One scan input: problems of `points` points each, many of them exact
// copies (same points and offset) so that costs tie exactly, including
// across the k-th place.
struct ScanInput {
  std::vector<std::vector<WeightedPoint>> points;
  std::vector<double> offsets;
};

ScanInput TiedScanInput(size_t points, size_t n, uint64_t seed) {
  Rng rng(seed);
  ScanInput in;
  std::vector<std::vector<WeightedPoint>> distinct;
  for (int i = 0; i < 24; ++i) distinct.push_back(RandomProblem(points, &rng));
  for (size_t i = 0; i < n; ++i) {
    const size_t pick = rng.NextBelow(distinct.size());
    in.points.push_back(distinct[pick]);
    in.offsets.push_back(2.5 * static_cast<double>(pick % 3));
  }
  return in;
}

// Reference for ScanBestK: every problem solved without a bound, sorted by
// (total cost, tie order, index), the first k kept.
std::vector<BatchAnswer> BruteForceBestK(
    const ScanInput& in, size_t k, double epsilon,
    const std::function<bool(size_t, size_t)>& tie_order) {
  std::vector<BatchAnswer> all;
  FermatWeberOptions fw;
  fw.epsilon = epsilon;
  for (size_t i = 0; i < in.points.size(); ++i) {
    const FermatWeberResult r = SolveFermatWeber(in.points[i], fw);
    all.push_back({i, r.location, r.cost + in.offsets[i]});
  }
  std::sort(all.begin(), all.end(),
            [&](const BatchAnswer& a, const BatchAnswer& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (tie_order(a.problem, b.problem)) return true;
              if (tie_order(b.problem, a.problem)) return false;
              return a.problem < b.problem;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(ScanBestKParallelTest, MatchesTheUnboundedBruteForceRanking) {
  // The bound and the prefilter only skip work: for every k, toggle and
  // thread count the scan keeps exactly the unbounded reference's k best,
  // bit for bit. The tie order prefers the higher index, so the tie
  // decisions are the scan's, not the index fallback's.
  constexpr size_t kProblems = 300;  // several chunks per scan
  const auto later_first = [](size_t a, size_t b) { return a > b; };
  for (const size_t points : {3u, 4u, 5u}) {
    const ScanInput in = TiedScanInput(points, kProblems, 900 + points);
    const ProblemBuilder build = [&](size_t i,
                                     std::vector<WeightedPoint>* out) {
      *out = in.points[i];
      return in.offsets[i];
    };
    for (const size_t k : {size_t{1}, size_t{2}, size_t{7}, kProblems,
                           kProblems + 3}) {
      const std::vector<BatchAnswer> want =
          BruteForceBestK(in, k, 1e-3, later_first);
      for (const bool bound : {true, false}) {
        for (const bool prefilter : {true, false}) {
          for (const int threads : {1, 2, 4, 7}) {
            BatchOptions opts;
            opts.use_cost_bound = bound;
            opts.use_two_point_prefilter = prefilter;
            opts.exec.threads = threads;
            const BatchResult got =
                ScanBestK(kProblems, build, later_first, k, opts);
            const std::string where =
                "points=" + std::to_string(points) +
                " k=" + std::to_string(k) + " bound=" +
                std::to_string(bound) + " prefilter=" +
                std::to_string(prefilter) +
                " threads=" + std::to_string(threads);
            ASSERT_FALSE(got.cancelled) << where;
            EXPECT_EQ(got.stats.problems, kProblems) << where;
            ASSERT_EQ(got.best.size(), want.size()) << where;
            for (size_t r = 0; r < want.size(); ++r) {
              EXPECT_EQ(got.best[r].problem, want[r].problem) << where;
              EXPECT_EQ(std::bit_cast<uint64_t>(got.best[r].cost),
                        std::bit_cast<uint64_t>(want[r].cost))
                  << where;
              EXPECT_EQ(std::bit_cast<uint64_t>(got.best[r].location.x),
                        std::bit_cast<uint64_t>(want[r].location.x))
                  << where;
              EXPECT_EQ(std::bit_cast<uint64_t>(got.best[r].location.y),
                        std::bit_cast<uint64_t>(want[r].location.y))
                  << where;
            }
          }
        }
      }
    }
  }
}

TEST(BatchTest, ParallelMatchesSerialBitwise) {
  // The winner triple (location, cost, index) must be invariant under the
  // thread count: tied minima always complete (strict shared bound) and
  // the reduction picks the lowest index among exact-cost ties.
  Rng rng(74);
  std::vector<std::vector<WeightedPoint>> problems;
  for (int i = 0; i < 200; ++i) problems.push_back(RandomProblem(5, &rng));
  BatchOptions serial;
  serial.epsilon = 1e-4;
  const auto base = SolveFermatWeberBatch(problems, serial);
  for (const int threads : {2, 4, 8}) {
    BatchOptions par = serial;
    par.exec.threads = threads;
    const auto r = SolveFermatWeberBatch(problems, par);
    EXPECT_EQ(r.best[0].problem, base.best[0].problem)
        << "threads=" << threads;
    EXPECT_EQ(r.best[0].cost, base.best[0].cost) << "threads=" << threads;
    EXPECT_EQ(r.best[0].location.x, base.best[0].location.x)
        << "threads=" << threads;
    EXPECT_EQ(r.best[0].location.y, base.best[0].location.y)
        << "threads=" << threads;
  }
}

TEST(BatchTest, CostBoundMatchesOriginalWinner) {
  Rng rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<WeightedPoint>> problems;
    for (int i = 0; i < 50; ++i) problems.push_back(RandomProblem(5, &rng));
    BatchOptions original;
    original.use_cost_bound = false;
    original.use_two_point_prefilter = false;
    original.epsilon = 1e-4;
    const auto base = SolveFermatWeberBatch(problems, original);
    BatchOptions cb;
    cb.epsilon = 1e-4;
    const auto fast = SolveFermatWeberBatch(problems, cb);
    // Same winner cost within stopping-rule slack.
    EXPECT_NEAR(fast.best[0].cost, base.best[0].cost,
                2e-4 * base.best[0].cost + 1e-9);
    // And strictly less work.
    EXPECT_LE(fast.stats.total_iterations, base.stats.total_iterations);
  }
}

TEST(BatchTest, PrefilterOnlySkipsLosers) {
  Rng rng(68);
  std::vector<std::vector<WeightedPoint>> problems;
  for (int i = 0; i < 100; ++i) problems.push_back(RandomProblem(6, &rng));
  BatchOptions opts;
  const auto r = SolveFermatWeberBatch(problems, opts);
  BatchOptions no_filter = opts;
  no_filter.use_two_point_prefilter = false;
  const auto r2 = SolveFermatWeberBatch(problems, no_filter);
  EXPECT_EQ(r.best[0].problem, r2.best[0].problem);
  EXPECT_NEAR(r.best[0].cost, r2.best[0].cost, 1e-12);
}

TEST(BatchTest, SingleProblemBatch) {
  const std::vector<std::vector<WeightedPoint>> problems = {
      {{{0, 0}, 1.0}, {{2, 0}, 1.0}, {{1, 2}, 1.0}}};
  const auto r = SolveFermatWeberBatch(problems);
  EXPECT_EQ(r.best[0].problem, 0u);
  EXPECT_GT(r.best[0].cost, 0.0);
}

}  // namespace
}  // namespace movd
