#include "fermat/fermat_weber.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/predicates.h"
#include "util/check.h"

namespace movd {
namespace {

// Weighted-median objective: returns min_y sum_i w_i |y - x_i| given
// (position, weight) pairs. Exact via sorting.
double WeightedMedianCost(std::vector<std::pair<double, double>>* items) {
  if (items->empty()) return 0.0;
  std::sort(items->begin(), items->end());
  double total = 0.0;
  for (const auto& [x, w] : *items) total += w;
  // Find the weighted median position.
  double acc = 0.0;
  double median = items->back().first;
  for (const auto& [x, w] : *items) {
    acc += w;
    if (acc >= 0.5 * total) {
      median = x;
      break;
    }
  }
  double cost = 0.0;
  for (const auto& [x, w] : *items) cost += w * std::fabs(median - x);
  return cost;
}

// Sum of weighted unit vectors from q toward every point except index
// `skip` (-1 to include all); points at q are ignored. `cost` receives the
// FermatWeberCost of q, bit for bit, when the skipped point (if any) is at q.
Point PullVector(const std::vector<WeightedPoint>& points, const Point& q,
                 int skip, double* cost = nullptr) {
  Point pull{0.0, 0.0};
  if (cost != nullptr) *cost = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (static_cast<int>(i) == skip) continue;
    const Point diff = points[i].location - q;
    const double d = diff.Norm();
    if (d == 0.0) continue;
    pull = pull + diff * (points[i].weight / d);
    if (cost != nullptr) *cost += points[i].weight * d;
  }
  return pull;
}

// One Weiszfeld step (paper Eq. 8/9), with the Vardi–Zhang correction when
// q coincides with a demand point. Returns q unchanged when q is optimal.
Point WeiszfeldStep(const std::vector<WeightedPoint>& points, const Point& q) {
  // Detect coincidence with a demand point, including underflowed distances.
  int at = -1;
  for (size_t i = 0; i < points.size(); ++i) {
    if (Distance(points[i].location, q) == 0.0) {
      at = static_cast<int>(i);
      break;
    }
  }
  if (at >= 0) {
    // Vertex optimality test: q == p_at is optimal iff the pull of the
    // remaining points does not exceed w_at.
    const Point pull = PullVector(points, q, at);
    const double r = pull.Norm();
    const double w = points[at].weight;
    if (r <= w) return q;
    // Vardi–Zhang: move along the pull direction by the damped step.
    double denom = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      if (static_cast<int>(i) == at) continue;
      const double d = Distance(points[i].location, q);
      if (d > 0.0) denom += points[i].weight / d;
    }
    MOVD_DCHECK(denom > 0.0);
    const double step = (r - w) / denom;
    return q + pull * (step / r);
  }
  // Standard step: convex combination with coefficients w_i / d_i.
  double denom = 0.0;
  Point num{0.0, 0.0};
  for (const WeightedPoint& p : points) {
    const double d = Distance(p.location, q);
    MOVD_DCHECK(d > 0.0);
    const double g = p.weight / d;
    num = num + p.location * g;
    denom += g;
  }
  return num / denom;
}

Point Centroid(const std::vector<WeightedPoint>& points) {
  Point c{0.0, 0.0};
  double w = 0.0;
  for (const WeightedPoint& p : points) {
    c = c + p.location * p.weight;
    w += p.weight;
  }
  return w > 0.0 ? c / w : points.front().location;
}

// A closed-form triangle point is kept when its weighted unit vectors cancel
// to this fraction of the total weight (measured: below 1e-9); if not, at
// most kTriangleFallbackIterations Weiszfeld steps polish it.
constexpr double kTriangleResidualTolerance = 1e-6;
constexpr int kTriangleFallbackIterations = 64;

// Interior weighted Fermat point (Launhardt's pole construction). With phi_i
// the angle opposite w_i in the triangle of sides (w_a, w_b, w_c), P sees BC
// under pi - phi_a, and so on. The construction meets line CC' with the
// circle through A, B and pole C', of radius |AB| / (2 sin phi_c), which blows
// up on slivers; so P comes from its barycentric coordinates 1 / (cot A +
// cot phi_a) : ... instead. Coordinates are moved to A and divided by the
// longest edge so that squared norms neither under- nor overflow.
Point LaunhardtPoint(const std::vector<WeightedPoint>& points) {
  const Point origin = points[0].location;
  const Point& b = points[1].location;
  const Point& c = points[2].location;
  const double scale =
      std::max({Distance(origin, b), Distance(origin, c), Distance(b, c)});
  const double inv_scale = 1.0 / scale;
  const double inv_w =
      1.0 / std::max({points[0].weight, points[1].weight, points[2].weight});
  Point v[3];
  double w[3];
  for (int i = 0; i < 3; ++i) {
    v[i] = (points[i].location - origin) * inv_scale;
    w[i] = points[i].weight * inv_w;
  }
  const double area2 = std::fabs(v[1].Cross(v[2]));
  const double heron = std::sqrt((w[0] + w[1] + w[2]) * (-w[0] + w[1] + w[2]) *
                                 (w[0] - w[1] + w[2]) * (w[0] + w[1] - w[2]));
  double e[3];  // area2 * heron * (cot A + cot phi_a): coordinate 1 / e_a
  for (int i = 0; i < 3; ++i) {
    const int j = (i + 1) % 3;
    const int k = (i + 2) % 3;
    e[i] = (v[j] - v[i]).Dot(v[k] - v[i]) * heron +
           (w[j] * w[j] + w[k] * w[k] - w[i] * w[i]) * area2;
  }
  return origin + (v[1] * (e[0] * e[2]) + v[2] * (e[0] * e[1])) * scale /
                      (e[1] * e[2] + e[0] * e[2] + e[0] * e[1]);
}

// The modified Weiszfeld iteration (Eq. 8/9) started from `q`.
FermatWeberResult Weiszfeld(const std::vector<WeightedPoint>& points,
                            Point q, const FermatWeberOptions& options) {
  FermatWeberResult result;
  MOVD_CHECK(options.relaxation > 0.0 && options.relaxation <= 2.0);
  double cost = FermatWeberCost(points, q);
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    if (iter % 256 == 0 && TokenExpired(options.cancel)) {
      result.cancelled = true;
      break;
    }
    Point next = WeiszfeldStep(points, q);
    result.iterations = iter;
    double next_cost = FermatWeberCost(points, next);
    if (options.relaxation != 1.0) {
      // Over-relaxed trial step; keep it only when it beats the plain one.
      const Point trial = q + (next - q) * options.relaxation;
      const double trial_cost = FermatWeberCost(points, trial);
      if (trial_cost < next_cost) {
        next = trial;
        next_cost = trial_cost;
      }
    }
    const bool moved = next != q;
    const bool improved = next_cost < cost;
    // Weiszfeld decreases the cost monotonically (in exact arithmetic);
    // reject steps that do not, which only happens at float-noise level.
    if (improved) {
      q = next;
      cost = next_cost;
    }
    const double lb = FermatWeberLowerBound(points, q);
    // Cost-bound pruning (Algorithm 5, lines 15-16): once even the lower
    // bound cannot beat the global bound, further iterations are wasted.
    // The shared bound is compared strictly (ties survive) so concurrent
    // solvers stay deterministic; see FermatWeberOptions.
    if (options.shared_cost_bound != nullptr &&
        lb + options.shared_bound_offset >
            options.shared_cost_bound->load(std::memory_order_relaxed)) {
      result.pruned = true;
      break;
    }
    // Paper stopping rule: relative deviation from the (bounded) optimum,
    // with the optimum approximated from below by Eq. 10.
    if ((lb > 0.0 && (cost - lb) / lb <= options.epsilon) || cost == 0.0) {
      result.converged = true;
      break;
    }
    // Numerical fixed point: the iteration cannot make further progress in
    // double precision (this includes optimal demand-point vertices, which
    // WeiszfeldStep returns unchanged).
    if (!moved || !improved) {
      result.converged = true;
      break;
    }
  }
  result.location = q;
  result.cost = cost;
  return result;
}

}  // namespace

double FermatWeberCost(const std::vector<WeightedPoint>& points,
                       const Point& q) {
  double cost = 0.0;
  for (const WeightedPoint& p : points) {
    cost += p.weight * Distance(q, p.location);
  }
  return cost;
}

double TwoPointPrefixCost(const std::vector<WeightedPoint>& points) {
  if (points.size() < 2) return 0.0;
  return std::min(points[0].weight, points[1].weight) *
         Distance(points[0].location, points[1].location);
}

double FermatWeberLowerBound(const std::vector<WeightedPoint>& points,
                             const Point& at) {
  // d(q, p) >= |q.x - p.x| * cx + |q.y - p.y| * cy for any (cx, cy) with
  // cx^2 + cy^2 <= 1 (Cauchy–Schwarz); pick c from the unit vector at->p.
  std::vector<std::pair<double, double>> xs, ys;
  xs.reserve(points.size());
  ys.reserve(points.size());
  for (const WeightedPoint& p : points) {
    const double d = Distance(at, p.location);
    if (d == 0.0) continue;  // contributes a zero lower-bound term
    const double cx = std::fabs(at.x - p.location.x) / d;
    const double cy = std::fabs(at.y - p.location.y) / d;
    xs.emplace_back(p.location.x, p.weight * cx);
    ys.emplace_back(p.location.y, p.weight * cy);
  }
  return WeightedMedianCost(&xs) + WeightedMedianCost(&ys);
}

std::optional<Point> SolveCollinear(const std::vector<WeightedPoint>& points) {
  MOVD_CHECK(!points.empty());
  // Find two distinct anchor points.
  const Point& a = points.front().location;
  int second = -1;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].location != a) {
      second = static_cast<int>(i);
      break;
    }
  }
  if (second < 0) return a;  // all points identical
  const Point& b = points[second].location;
  for (const WeightedPoint& p : points) {
    if (Orient2D(a, b, p.location) != 0.0) return std::nullopt;
  }
  // Project on the line direction and take the weighted median.
  const Point dir = b - a;
  std::vector<std::pair<double, double>> ts;  // (parameter, weight)
  ts.reserve(points.size());
  for (const WeightedPoint& p : points) {
    ts.emplace_back((p.location - a).Dot(dir), p.weight);
  }
  std::sort(ts.begin(), ts.end());
  double total = 0.0;
  for (const auto& [t, w] : ts) total += w;
  double acc = 0.0;
  double median_t = ts.back().first;
  for (const auto& [t, w] : ts) {
    acc += w;
    if (acc >= 0.5 * total) {
      median_t = t;
      break;
    }
  }
  return a + dir * (median_t / dir.Norm2());
}

FermatWeberResult SolveTriangle(const std::vector<WeightedPoint>& points) {
  MOVD_CHECK(points.size() == 3);
  // Vertex optimality (generalises the 120-degree rule to weights).
  FermatWeberResult vertex{{}, std::numeric_limits<double>::infinity(), 0,
                           true, false};
  double cost = 0.0;
  for (int j = 0; j < 3; ++j) {
    const Point& p = points[j].location;
    if (PullVector(points, p, j, &cost).Norm() <= points[j].weight) {
      return {p, cost, 0, true, false};
    }
    if (cost < vertex.cost) vertex = {p, cost, 0, true, false};
  }
  const Point p = LaunhardtPoint(points);
  const double residual =
      PullVector(points, p, -1, &cost).Norm() /
      (points[0].weight + points[1].weight + points[2].weight);
  if (cost <= vertex.cost && residual <= kTriangleResidualTolerance) {
    return {p, cost, 0, true, false};
  }
  // Rounding broke the construction: polish with a bounded Weiszfeld run,
  // keeping the best vertex if that is still better.
  FermatWeberOptions opts;
  opts.epsilon = 1e-12;
  opts.max_iterations = kTriangleFallbackIterations;
  const bool finite = std::isfinite(p.x) && std::isfinite(p.y);
  FermatWeberResult r = Weiszfeld(points, finite ? p : Centroid(points), opts);
  if (r.cost <= vertex.cost) return r;
  vertex.iterations = r.iterations;
  return vertex;
}

FermatWeberResult SolveFermatWeber(const std::vector<WeightedPoint>& points,
                                   const FermatWeberOptions& options) {
  MOVD_CHECK_MSG(!points.empty(),
                 "a Fermat-Weber problem needs at least one point");
  FermatWeberResult result;

  if (options.use_exact_special_cases) {
    if (points.size() == 1) {
      result.location = points.front().location;
      result.cost = 0.0;
      result.converged = true;
      return result;
    }
    if (points.size() == 2) {
      // Optimum at the heavier endpoint (anywhere on the segment for ties).
      const bool first = points[0].weight >= points[1].weight;
      result.location = (first ? points[0] : points[1]).location;
      result.cost = FermatWeberCost(points, result.location);
      result.converged = true;
      return result;
    }
    if (const auto collinear = SolveCollinear(points)) {
      result.location = *collinear;
      result.cost = FermatWeberCost(points, result.location);
      result.converged = true;
      return result;
    }
    if (points.size() == 3) return SolveTriangle(points);
  }

  return Weiszfeld(points, Centroid(points), options);
}

}  // namespace movd
