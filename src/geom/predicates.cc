#include "geom/predicates.h"

#include <algorithm>
#include <cmath>

#include "geom/expansion.h"

namespace movd {
namespace {

using expansion::Estimate;
using expansion::FastExpansionSumZeroelim;
using expansion::ScaleExpansionZeroelim;
using expansion::TwoProduct;
using expansion::TwoTwoDiff;

// Machine epsilon as used by Shewchuk: half an ulp of 1.0.
constexpr double kEpsilon = 0x1.0p-53;
// Forward error bounds for the fast (filtered) evaluations.
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundA = (10.0 + 96.0 * kEpsilon) * kEpsilon;
// Each squared distance carries at most 4 roundings (one difference per
// coordinate, squared, summed) and their difference one more: 5 epsilon
// of the sum of the two, plus slack for the second-order terms.
constexpr double kCmpErrBoundA = (6.0 + 64.0 * kEpsilon) * kEpsilon;

// Exact sign of orient2d, via full expansion arithmetic on the untranslated
// coordinates: det = (ax*by - ax*cy) + (bx*cy - bx*ay) + (cx*ay - cx*by).
double Orient2DExact(const Point& a, const Point& b, const Point& c) {
  double axby1, axby0, axcy1, axcy0;
  double bxcy1, bxcy0, bxay1, bxay0;
  double cxay1, cxay0, cxby1, cxby0;
  double aterms[4], bterms[4], cterms[4];
  double v[8], w[12];

  TwoProduct(a.x, b.y, &axby1, &axby0);
  TwoProduct(a.x, c.y, &axcy1, &axcy0);
  TwoTwoDiff(axby1, axby0, axcy1, axcy0, aterms);

  TwoProduct(b.x, c.y, &bxcy1, &bxcy0);
  TwoProduct(b.x, a.y, &bxay1, &bxay0);
  TwoTwoDiff(bxcy1, bxcy0, bxay1, bxay0, bterms);

  TwoProduct(c.x, a.y, &cxay1, &cxay0);
  TwoProduct(c.x, b.y, &cxby1, &cxby0);
  TwoTwoDiff(cxay1, cxay0, cxby1, cxby0, cterms);

  const int vlen = FastExpansionSumZeroelim(4, aterms, 4, bterms, v);
  const int wlen = FastExpansionSumZeroelim(vlen, v, 4, cterms, w);
  return w[wlen - 1];
}

// Computes the exact 4-expansion of (px*qy - qx*py) into h.
void CrossTerm(const Point& p, const Point& q, double h[4]) {
  double pxqy1, pxqy0, qxpy1, qxpy0;
  TwoProduct(p.x, q.y, &pxqy1, &pxqy0);
  TwoProduct(q.x, p.y, &qxpy1, &qxpy0);
  TwoTwoDiff(pxqy1, pxqy0, qxpy1, qxpy0, h);
}

// h = (s.x^2 + s.y^2) * e * sign, exactly. e has elen components (<= 12);
// h needs room for 8 * elen doubles. Returns the component count.
int LiftScale(const Point& s, double sign, int elen, const double* e,
              double* h) {
  double tx[24], txx[48], ty[24], tyy[48];
  const int txlen = ScaleExpansionZeroelim(elen, e, s.x, tx);
  const int txxlen = ScaleExpansionZeroelim(txlen, tx, sign * s.x, txx);
  const int tylen = ScaleExpansionZeroelim(elen, e, s.y, ty);
  const int tyylen = ScaleExpansionZeroelim(tylen, ty, sign * s.y, tyy);
  return FastExpansionSumZeroelim(txxlen, txx, tyylen, tyy, h);
}

// Exact sign of the in-circle determinant via the lifted 4x4 expansion:
//   det = alift*bcd - blift*cda + clift*dab - dlift*abc
// where xyz denotes the 3x3 minor |x 1; y 1; z 1| of planar rows.
double InCircleExact(const Point& a, const Point& b, const Point& c,
                     const Point& d) {
  double ab[4], bc[4], cd[4], da[4], ac[4], bd[4];
  CrossTerm(a, b, ab);
  CrossTerm(b, c, bc);
  CrossTerm(c, d, cd);
  CrossTerm(d, a, da);
  CrossTerm(a, c, ac);
  CrossTerm(b, d, bd);

  double temp8[8];
  double cda[12], dab[12], abc[12], bcd[12];
  int templen = FastExpansionSumZeroelim(4, cd, 4, da, temp8);
  const int cdalen = FastExpansionSumZeroelim(templen, temp8, 4, ac, cda);
  templen = FastExpansionSumZeroelim(4, da, 4, ab, temp8);
  const int dablen = FastExpansionSumZeroelim(templen, temp8, 4, bd, dab);
  for (int i = 0; i < 4; ++i) {
    bd[i] = -bd[i];
    ac[i] = -ac[i];
  }
  templen = FastExpansionSumZeroelim(4, ab, 4, bc, temp8);
  const int abclen = FastExpansionSumZeroelim(templen, temp8, 4, ac, abc);
  templen = FastExpansionSumZeroelim(4, bc, 4, cd, temp8);
  const int bcdlen = FastExpansionSumZeroelim(templen, temp8, 4, bd, bcd);

  double adet[96], bdet[96], cdet[96], ddet[96];
  const int alen = LiftScale(a, +1.0, bcdlen, bcd, adet);
  const int blen = LiftScale(b, -1.0, cdalen, cda, bdet);
  const int clen = LiftScale(c, +1.0, dablen, dab, cdet);
  const int dlen = LiftScale(d, -1.0, abclen, abc, ddet);

  double abdet[192], cddet[192], deter[384];
  const int ablen = FastExpansionSumZeroelim(alen, adet, blen, bdet, abdet);
  const int cdlen = FastExpansionSumZeroelim(clen, cdet, dlen, ddet, cddet);
  const int deterlen =
      FastExpansionSumZeroelim(ablen, abdet, cdlen, cddet, deter);
  return deter[deterlen - 1];
}

// Exact sign of |q-a|^2 - |q-b|^2 on the untranslated coordinates:
// (ax^2 - bx^2) + (ay^2 - by^2) + 2qx(bx - ax) + 2qy(by - ay), each
// product an exact two-component expansion. Doubling q is exact.
double CompareDistanceExact(const Point& q, const Point& a, const Point& b) {
  double t[4][4];
  const auto diff_of_products = [](double p, double x, double r, double y,
                                   double h[4]) {
    double pa1, pa0, rb1, rb0;
    TwoProduct(p, x, &pa1, &pa0);
    TwoProduct(r, y, &rb1, &rb0);
    TwoTwoDiff(pa1, pa0, rb1, rb0, h);
  };
  diff_of_products(a.x, a.x, b.x, b.x, t[0]);
  diff_of_products(a.y, a.y, b.y, b.y, t[1]);
  diff_of_products(2.0 * q.x, b.x, 2.0 * q.x, a.x, t[2]);
  diff_of_products(2.0 * q.y, b.y, 2.0 * q.y, a.y, t[3]);
  double xy[8], qq[8], sum[16];
  const int xylen = FastExpansionSumZeroelim(4, t[0], 4, t[1], xy);
  const int qqlen = FastExpansionSumZeroelim(4, t[2], 4, t[3], qq);
  const int len = FastExpansionSumZeroelim(xylen, xy, qqlen, qq, sum);
  return sum[len - 1];
}

}  // namespace

bool ExactDistanceRange(std::span<const Point> points) {
  const auto in_range = [](double v) {
    const double m = std::fabs(v);
    return m == 0.0 || (m >= 0x1.0p-400 && m <= 0x1.0p64);
  };
  return std::all_of(points.begin(), points.end(), [&](const Point& p) {
    return in_range(p.x) && in_range(p.y);
  });
}

int PredicateScaleExponent(const std::vector<Point>& points) {
  double max_abs = 0.0;
  for (const Point& p : points) {
    max_abs = std::max({max_abs, std::fabs(p.x), std::fabs(p.y)});
  }
  if (max_abs == 0.0 || !std::isfinite(max_abs) ||
      (max_abs >= 0x1.0p-64 && max_abs <= 0x1.0p64)) {
    return 0;
  }
  const int e = -std::ilogb(max_abs);
  for (const Point& p : points) {
    if (std::ldexp(std::ldexp(p.x, e), -e) != p.x ||
        std::ldexp(std::ldexp(p.y, e), -e) != p.y) {
      return 0;
    }
  }
  return e;
}

std::vector<Point> ScalePoints(std::span<const Point> points, int e) {
  std::vector<Point> out;
  out.reserve(points.size());
  for (const Point& p : points) {
    out.push_back({std::ldexp(p.x, e), std::ldexp(p.y, e)});
  }
  return out;
}

double Orient2D(const Point& a, const Point& b, const Point& c) {
  const double detleft = (a.x - c.x) * (b.y - c.y);
  const double detright = (a.y - c.y) * (b.x - c.x);
  const double det = detleft - detright;
  double detsum;

  if (detleft > 0.0) {
    if (detright <= 0.0) return det;
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det;
    detsum = -detleft - detright;
  } else {
    return det;
  }
  const double errbound = kCcwErrBoundA * detsum;
  if (det >= errbound || -det >= errbound) return det;
  return Orient2DExact(a, b, c);
}

double CompareDistance(const Point& q, const Point& a, const Point& b) {
  const double adx = a.x - q.x;
  const double ady = a.y - q.y;
  const double bdx = b.x - q.x;
  const double bdy = b.y - q.y;
  const double alift = adx * adx + ady * ady;
  const double blift = bdx * bdx + bdy * bdy;
  const double det = alift - blift;
  const double errbound = kCmpErrBoundA * (alift + blift);
  if (det > errbound || -det > errbound) return det;
  return CompareDistanceExact(q, a, b);
}

double InCircle(const Point& a, const Point& b, const Point& c,
                const Point& d) {
  const double adx = a.x - d.x;
  const double bdx = b.x - d.x;
  const double cdx = c.x - d.x;
  const double ady = a.y - d.y;
  const double bdy = b.y - d.y;
  const double cdy = c.y - d.y;

  const double bdxcdy = bdx * cdy;
  const double cdxbdy = cdx * bdy;
  const double alift = adx * adx + ady * ady;

  const double cdxady = cdx * ady;
  const double adxcdy = adx * cdy;
  const double blift = bdx * bdx + bdy * bdy;

  const double adxbdy = adx * bdy;
  const double bdxady = bdx * ady;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);

  const double permanent = (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
                           (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
                           (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
  const double errbound = kIccErrBoundA * permanent;
  if (det > errbound || -det > errbound) return det;
  return InCircleExact(a, b, c, d);
}

}  // namespace movd
