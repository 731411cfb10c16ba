#ifndef MOVD_GEOM_PREDICATES_H_
#define MOVD_GEOM_PREDICATES_H_

#include <span>
#include <vector>

#include "geom/point.h"

namespace movd {

/// Exact geometric predicates in the style of Shewchuk's adaptive
/// floating-point arithmetic.
///
/// Each predicate runs a fast double-precision evaluation first and falls
/// back to exact multi-component ("expansion") arithmetic only when the
/// computed value is smaller than a forward error bound. The returned
/// *sign* is always exact; the magnitude from the fast path is approximate.
///
/// Requires strict IEEE-754 double semantics (the build disables
/// -ffast-math).

/// Sign of the signed area of triangle (a, b, c):
///   > 0  when c lies to the left of the directed line a->b (counterclockwise)
///   < 0  when c lies to the right (clockwise)
///   = 0  when the three points are exactly collinear.
double Orient2D(const Point& a, const Point& b, const Point& c);

/// Sign of the in-circle determinant:
///   > 0  when d lies strictly inside the circle through a, b, c
///   < 0  when strictly outside
///   = 0  when cocircular.
/// Requires (a, b, c) in counterclockwise order; the sign flips otherwise.
double InCircle(const Point& a, const Point& b, const Point& c,
                const Point& d);

/// Sign of |q - a|^2 - |q - b|^2:
///   < 0  when a is strictly closer to q than b
///   > 0  when a is strictly farther
///   = 0  when a and b are exactly as far from q.
/// Filtered like the two predicates above: a double-precision difference
/// of squared distances first, exact expansion arithmetic on the
/// untranslated coordinates when it is within its error bound. Its terms
/// are of degree 2, so it stays exact while every nonzero coordinate
/// magnitude lies in [2^-400, 2^64] (see ExactDistanceRange).
double CompareDistance(const Point& q, const Point& a, const Point& b);

/// True when every coordinate of `points` is 0 or has a magnitude in
/// [2^-400, 2^64], where no product CompareDistance forms overflows or
/// underflows, so its sign is exact for any three of these points.
bool ExactDistanceRange(std::span<const Point> points);

/// All three predicates are exact only while their expansions neither overflow
/// nor underflow, and InCircle's terms are of degree 4 in the coordinates,
/// so inputs far from unit scale can get wrong signs. Multiplying every
/// coordinate by the same power of two leaves every sign unchanged, so a
/// caller can run the predicates on ScalePoints(points, e) instead.
///
/// Returns the e for `points`: 0 when their largest coordinate magnitude
/// lies in [2^-64, 2^64] (or is zero or not finite), else the e that
/// brings it into [1, 2). Also 0 when some coordinate would not survive
/// the scale exactly (a subnormal result).
int PredicateScaleExponent(const std::vector<Point>& points);

/// `points` with every coordinate multiplied by 2^e.
std::vector<Point> ScalePoints(std::span<const Point> points, int e);

/// Convenience: true when (a, b, c) are exactly collinear.
inline bool Collinear(const Point& a, const Point& b, const Point& c) {
  return Orient2D(a, b, c) == 0.0;
}

}  // namespace movd

#endif  // MOVD_GEOM_PREDICATES_H_
