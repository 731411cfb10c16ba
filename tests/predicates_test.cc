#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "geom/expansion.h"
#include "geom/predicates.h"
#include "util/rng.h"

namespace movd {
namespace {

TEST(ExpansionTest, TwoSumIsExact) {
  double x, y;
  expansion::TwoSum(1.0, 1e-30, &x, &y);
  EXPECT_EQ(x, 1.0);
  EXPECT_EQ(y, 1e-30);  // the residual carries the lost low-order part
}

TEST(ExpansionTest, TwoProductCapturesRoundoff) {
  double x, y;
  // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60; the last term falls off the double.
  const double a = 1.0 + std::ldexp(1.0, -30);
  expansion::TwoProduct(a, a, &x, &y);
  EXPECT_EQ(x + y, x);  // y is strictly smaller than half an ulp of x...
  EXPECT_NE(y, 0.0);    // ...but the exact residual is preserved
}

TEST(ExpansionTest, SumOfExpansionsPreservesValue) {
  double e[2], f[2], h[4];
  expansion::TwoSum(1.0, 1e-20, &e[1], &e[0]);
  expansion::TwoSum(3.0, -1e-20, &f[1], &f[0]);
  const int n = expansion::FastExpansionSumZeroelim(2, e, 2, f, h);
  // Exact total is 4.0: the 1e-20 residuals cancel exactly.
  EXPECT_EQ(expansion::Estimate(n, h), 4.0);
}

TEST(Orient2DTest, BasicSigns) {
  EXPECT_GT(Orient2D({0, 0}, {1, 0}, {0, 1}), 0.0);  // left turn
  EXPECT_LT(Orient2D({0, 0}, {1, 0}, {0, -1}), 0.0);  // right turn
  EXPECT_EQ(Orient2D({0, 0}, {1, 1}, {2, 2}), 0.0);  // collinear
}

TEST(Orient2DTest, ExactlyDetectsNearCollinearPerturbations) {
  // Points nearly on the line y = x, offset by one ulp: the fast filter
  // cannot decide; the exact path must.
  const double eps = std::ldexp(1.0, -52);
  const Point a{0.5, 0.5};
  const Point b{12.0, 12.0};
  const Point on{3.0, 3.0};
  const Point above{3.0, 3.0 * (1.0 + eps)};
  const Point below{3.0, 3.0 * (1.0 - eps)};
  EXPECT_EQ(Orient2D(a, b, on), 0.0);
  EXPECT_GT(Orient2D(a, b, above), 0.0);
  EXPECT_LT(Orient2D(a, b, below), 0.0);
}

TEST(Orient2DTest, AntiSymmetricUnderSwap) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Point b{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Point c{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const double s1 = Orient2D(a, b, c);
    const double s2 = Orient2D(b, a, c);
    // Signs must be exactly opposite (or both zero).
    EXPECT_EQ(s1 > 0, s2 < 0);
    EXPECT_EQ(s1 == 0, s2 == 0);
  }
}

TEST(Orient2DTest, InvariantUnderCyclicRotation) {
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const Point b{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const Point c{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const double s1 = Orient2D(a, b, c);
    const double s2 = Orient2D(b, c, a);
    const double s3 = Orient2D(c, a, b);
    EXPECT_EQ(s1 > 0, s2 > 0);
    EXPECT_EQ(s2 > 0, s3 > 0);
    EXPECT_EQ(s1 == 0, s3 == 0);
  }
}

TEST(InCircleTest, BasicInsideOutside) {
  // CCW unit circle through (1,0), (0,1), (-1,0).
  const Point a{1, 0}, b{0, 1}, c{-1, 0};
  EXPECT_GT(InCircle(a, b, c, {0, 0}), 0.0);        // center: inside
  EXPECT_LT(InCircle(a, b, c, {2, 0}), 0.0);        // far: outside
  EXPECT_EQ(InCircle(a, b, c, {0, -1}), 0.0);       // on the circle
}

TEST(InCircleTest, ExactOnCocircularGrid) {
  // All four corners of a square are cocircular: the determinant is a
  // zero that the fast filter cannot certify.
  const Point a{0, 0}, b{1, 0}, c{1, 1}, d{0, 1};
  EXPECT_EQ(InCircle(a, b, c, d), 0.0);
}

TEST(InCircleTest, SignFlipsWithOrientation) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point b{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point c{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point d{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    if (Orient2D(a, b, c) == 0.0) continue;
    const double s_ccw = InCircle(a, b, c, d);
    const double s_cw = InCircle(b, a, c, d);  // reversed orientation
    EXPECT_EQ(s_ccw > 0, s_cw < 0);
    EXPECT_EQ(s_ccw == 0, s_cw == 0);
  }
}

TEST(InCircleTest, AgreesWithDistanceComparison) {
  // For well-separated random inputs the naive circumcircle test and the
  // exact predicate must agree.
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point b{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point c{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point d{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const double orientation = Orient2D(a, b, c);
    if (std::fabs(orientation) < 1e-3) continue;
    // Circumcenter via perpendicular bisector intersection.
    const double d_ab = a.Norm2() - b.Norm2();
    const double d_ac = a.Norm2() - c.Norm2();
    const double det = 2.0 * ((a.x - b.x) * (a.y - c.y) -
                              (a.x - c.x) * (a.y - b.y));
    const Point center{(d_ab * (a.y - c.y) - d_ac * (a.y - b.y)) / det,
                       ((a.x - b.x) * d_ac - (a.x - c.x) * d_ab) / det};
    const double r2 = Distance2(center, a);
    const double gap = Distance2(center, d) - r2;
    if (std::fabs(gap) < 1e-6 * r2) continue;  // too close to call naively
    const double pred =
        orientation > 0 ? InCircle(a, b, c, d) : InCircle(b, a, c, d);
    EXPECT_EQ(gap < 0, pred > 0) << "iteration " << i;
  }
}

// Parameterized sweep: scaling all coordinates by powers of two must not
// change any predicate sign (binary scaling is exact).
class PredicateScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(PredicateScaleTest, SignsScaleInvariant) {
  const double s = std::ldexp(1.0, GetParam());
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const Point a{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const Point b{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const Point c{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const Point d{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const auto scale = [s](const Point& p) { return Point{p.x * s, p.y * s}; };
    const double o1 = Orient2D(a, b, c);
    const double o2 = Orient2D(scale(a), scale(b), scale(c));
    EXPECT_EQ(o1 > 0, o2 > 0);
    EXPECT_EQ(o1 == 0, o2 == 0);
    const double i1 = InCircle(a, b, c, d);
    const double i2 = InCircle(scale(a), scale(b), scale(c), scale(d));
    EXPECT_EQ(i1 > 0, i2 > 0);
    EXPECT_EQ(i1 == 0, i2 == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, PredicateScaleTest,
                         ::testing::Values(-40, -20, -4, 0, 4, 20, 40));

// Exact sign of |q-a|^2 - |q-b|^2 for integer coordinates below 2^30 in
// magnitude: every square and sum fits an int64 exactly.
int ReferenceCompare(int64_t qx, int64_t qy, int64_t ax, int64_t ay,
                     int64_t bx, int64_t by) {
  const int64_t da = (ax - qx) * (ax - qx) + (ay - qy) * (ay - qy);
  const int64_t db = (bx - qx) * (bx - qx) + (by - qy) * (by - qy);
  return da < db ? -1 : da > db ? 1 : 0;
}

int Sign(double v) { return v < 0 ? -1 : v > 0 ? 1 : 0; }

// CompareDistance on the points scaled by 2^k, for every k of `scales`
// (binary scaling is exact inside ExactDistanceRange).
void ExpectCompare(int64_t qx, int64_t qy, int64_t ax, int64_t ay,
                   int64_t bx, int64_t by) {
  const int want = ReferenceCompare(qx, qy, ax, ay, bx, by);
  for (const int k : {-360, -40, 0, 33}) {
    const auto at = [k](int64_t x, int64_t y) {
      return Point{std::ldexp(static_cast<double>(x), k),
                   std::ldexp(static_cast<double>(y), k)};
    };
    const Point q = at(qx, qy);
    const Point a = at(ax, ay);
    const Point b = at(bx, by);
    ASSERT_TRUE(ExactDistanceRange(std::vector<Point>{q, a, b}));
    EXPECT_EQ(Sign(CompareDistance(q, a, b)), want)
        << "q=(" << qx << "," << qy << ") a=(" << ax << "," << ay
        << ") b=(" << bx << "," << by << ") k=" << k;
    EXPECT_EQ(Sign(CompareDistance(q, b, a)), -want);
  }
}

TEST(CompareDistanceTest, BasicSigns) {
  EXPECT_LT(CompareDistance({0, 0}, {1, 0}, {2, 0}), 0.0);
  EXPECT_GT(CompareDistance({0, 0}, {0, 3}, {2, 2}), 0.0);
  EXPECT_EQ(CompareDistance({0, 0}, {3, 4}, {5, 0}), 0.0);
  EXPECT_EQ(CompareDistance({1, 1}, {1, 1}, {1, 1}), 0.0);
}

TEST(CompareDistanceTest, ExactOnCocircularIntegerGrid) {
  // Every pair of grid points around a grid centre: many exact ties
  // (points on one circle) and many that differ by 1 in 2^60.
  for (int64_t ax = -6; ax <= 6; ++ax) {
    for (int64_t ay = -6; ay <= 6; ++ay) {
      for (int64_t bx = -6; bx <= 6; bx += 3) {
        for (int64_t by = -6; by <= 6; by += 2) {
          ExpectCompare(0, 0, ax, ay, bx, by);
        }
      }
    }
  }
}

TEST(CompareDistanceTest, NearTiesFarFromTheQuery) {
  // Squared distances near 2^61 that differ in their last bits, where the
  // double evaluation rounds both sides to the same value.
  const int64_t big = int64_t{1} << 29;
  for (int64_t d = -3; d <= 3; ++d) {
    ExpectCompare(0, 0, big + 1, big, big, big + 1 + d);
    ExpectCompare(-big, 7, big - 1, big + d, big + d, big - 1);
  }
  // Collinear rows: a and b on one line through q, and on opposite sides.
  for (int64_t t = -4; t <= 4; ++t) {
    ExpectCompare(big, big, big + 3 * t, big + 5 * t, big - 3 * t,
                  big - 5 * t + (t % 2));
  }
}

TEST(CompareDistanceTest, QueriesOnBisectorsAndDuplicates) {
  Rng rng(90);
  for (int i = 0; i < 400; ++i) {
    const auto coord = [&] {
      return static_cast<int64_t>(rng.NextBelow(1u << 28)) - (1 << 27);
    };
    const int64_t ax = coord(), ay = coord(), bx = coord(), by = coord();
    // The bisector of a and b through their midpoint (doubled so it is an
    // integer point), nudged by -1, 0 or +1 along a - b.
    const int64_t nudge = static_cast<int64_t>(rng.NextBelow(3)) - 1;
    const int64_t qx = ax + bx + nudge * (ax - bx) - (by - ay);
    const int64_t qy = ay + by + nudge * (ay - by) + (bx - ax);
    ExpectCompare(qx, qy, 2 * ax, 2 * ay, 2 * bx, 2 * by);
    ExpectCompare(qx, qy, 2 * ax, 2 * ay, 2 * ax, 2 * ay);  // duplicate
  }
}

TEST(CompareDistanceTest, ExactDistanceRangeBounds) {
  EXPECT_TRUE(ExactDistanceRange(std::vector<Point>{{0, 0}, {1, -1}}));
  EXPECT_TRUE(ExactDistanceRange(
      std::vector<Point>{{0x1p-400, 0x1p64}, {-0x1p64, -0x1p-400}}));
  EXPECT_FALSE(ExactDistanceRange(std::vector<Point>{{0x1p65, 0}}));
  EXPECT_FALSE(ExactDistanceRange(std::vector<Point>{{0, 0x1p-401}}));
  EXPECT_FALSE(ExactDistanceRange(
      std::vector<Point>{{std::numeric_limits<double>::infinity(), 0}}));
  EXPECT_FALSE(ExactDistanceRange(
      std::vector<Point>{{std::numeric_limits<double>::quiet_NaN(), 0}}));
}

}  // namespace
}  // namespace movd
