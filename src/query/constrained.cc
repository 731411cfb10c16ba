#include "query/constrained.h"

#include <cstdint>
#include <utility>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

/// Appends p \ q to `out` as disjoint convex pieces by half-plane peeling:
/// for each CCW edge a->b of q, the part of the remainder strictly right of
/// the edge is outside q (peeled off whole), and the part to the left stays
/// for the next edge. What survives every edge is p ∩ q — the excluded
/// part, which is discarded.
void AppendConvexDifference(const ConvexPolygon& p, const ConvexPolygon& q,
                            std::vector<ConvexPolygon>* out) {
  if (q.Empty()) {
    if (!p.Empty()) out->push_back(p);
    return;
  }
  ConvexPolygon rest = p;
  const std::vector<Point>& v = q.vertices();
  for (size_t i = 0; i < v.size() && !rest.Empty(); ++i) {
    const Point& a = v[i];
    const Point& b = v[(i + 1) % v.size()];
    ConvexPolygon outside = rest;
    outside.ClipByHalfPlane(b, a);  // left of b->a == right of a->b
    outside.DropIfSliver(Region::kDefaultMinPieceArea);
    if (!outside.Empty()) out->push_back(std::move(outside));
    rest.ClipByHalfPlane(a, b);
    rest.DropIfSliver(Region::kDefaultMinPieceArea);
  }
}

/// Golden-section minimization of the (convex) Fermat–Weber cost along the
/// segment a->b. A fixed 64-iteration schedule — no data-dependent stopping
/// rule — keeps the result bit-identical across runs and thread counts;
/// 0.618^64 shrinks the bracket far below double resolution. Both endpoints
/// are evaluated as guards (the minimum of a convex function over a segment
/// can sit exactly at an endpoint the interior bracket never reaches).
Point MinimizeOnSegment(const std::vector<WeightedPoint>& points,
                        const Point& a, const Point& b, double* cost_out) {
  constexpr double kInvPhi = 0.6180339887498949;
  const auto at = [&](double t) {
    return Point{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
  };
  double lo = 0.0;
  double hi = 1.0;
  double c = hi - (hi - lo) * kInvPhi;
  double d = lo + (hi - lo) * kInvPhi;
  double fc = FermatWeberCost(points, at(c));
  double fd = FermatWeberCost(points, at(d));
  for (int it = 0; it < 64; ++it) {
    if (fc < fd) {
      hi = d;
      d = c;
      fd = fc;
      c = hi - (hi - lo) * kInvPhi;
      fc = FermatWeberCost(points, at(c));
    } else {
      lo = c;
      c = d;
      fc = fd;
      d = lo + (hi - lo) * kInvPhi;
      fd = FermatWeberCost(points, at(d));
    }
  }
  Point best = at(0.5 * (lo + hi));
  double best_cost = FermatWeberCost(points, best);
  const double cost_a = FermatWeberCost(points, a);
  if (cost_a < best_cost) {
    best = a;
    best_cost = cost_a;
  }
  const double cost_b = FermatWeberCost(points, b);
  if (cost_b < best_cost) {
    best = b;
    best_cost = cost_b;
  }
  *cost_out = best_cost;
  return best;
}

}  // namespace

Region BuildFeasibleRegion(const QueryConstraint& constraint,
                           const Rect& search_space) {
  MOVD_CHECK_MSG(ValidateConstraint(constraint).ok() && !search_space.Empty(),
                 "the feasible region needs a valid constraint and a "
                 "non-empty search space");
  std::vector<ConvexPolygon> pieces;
  const ConvexPolygon space = ConvexPolygon::FromRect(search_space);
  if (constraint.boundary.Empty()) {
    pieces.push_back(space);
  } else {
    for (const ConvexPolygon& tri : constraint.boundary.Triangulate()) {
      ConvexPolygon piece = ConvexPolygon::Intersect(tri, space);
      piece.DropIfSliver(Region::kDefaultMinPieceArea);
      if (!piece.Empty()) pieces.push_back(std::move(piece));
    }
  }
  for (const Polygon& exclusion : constraint.exclusions) {
    // Zero-area (collinear) exclusions have no interior: no-ops under the
    // closed-set semantics.
    if (!(exclusion.SignedArea() > 0.0)) continue;
    for (const ConvexPolygon& tri : exclusion.Triangulate()) {
      std::vector<ConvexPolygon> next;
      for (const ConvexPolygon& piece : pieces) {
        AppendConvexDifference(piece, tri, &next);
      }
      pieces = std::move(next);
    }
  }
  return Region::FromPieces(std::move(pieces));
}

Movd ClipMovdToFeasible(const Movd& movd, const Region& feasible) {
  Movd out;
  for (const Ovr& ovr : movd.ovrs) {
    MOVD_CHECK_MSG(!ovr.region.Empty(),
                   "constrained MOLQ requires an RRB MOVD: every OVR must "
                   "carry its real region");
    Ovr clipped;
    clipped.region = Region::Intersect(ovr.region, feasible);
    if (clipped.region.Empty()) continue;
    clipped.mbr = clipped.region.Bbox();
    clipped.pois = ovr.pois;
    out.ovrs.push_back(std::move(clipped));
  }
  return out;
}

ConstrainedMolqResult ConstrainedFromClippedMovd(
    const MolqQuery& query, const Movd& clipped,
    const CandidateOptions& options) {
  MOVD_CHECK_MSG(options.epsilon > 0.0,
                 "the constrained optimizer needs epsilon > 0");
  ConstrainedMolqResult result;
  TraceContextScope trace_scope(options.exec.trace);
  TraceSpan span("query_constrained");
  result.clipped_ovrs = clipped.ovrs.size();

  struct Slot {
    bool solved = false;
    bool on_boundary = false;
    SiteCandidate candidate;
  };
  std::vector<Slot> slots(clipped.ovrs.size());
  const Trace::Context ctx = Trace::CaptureContext();
  ParallelFor(
      ResolveThreads(options.exec.threads), clipped.ovrs.size(),
      [&](size_t i) {
        if (TokenExpired(options.exec.cancel)) return;
        TraceContextScope scope(ctx);
        const Ovr& ovr = clipped.ovrs[i];
        MOVD_CHECK(!ovr.pois.empty());
        std::vector<WeightedPoint> points;
        const double offset =
            BuildFermatWeberProblem(query, ovr.pois, &points);
        FermatWeberOptions fw;
        fw.epsilon = options.epsilon;
        fw.cancel = options.exec.cancel;
        const FermatWeberResult free = SolveFermatWeber(points, fw);
        Slot& slot = slots[i];
        Point where = free.location;
        double fw_cost = free.cost;
        if (!ovr.region.Contains(free.location)) {
          // The cost is convex, so with the unconstrained optimum outside
          // the clipped region the constrained optimum lies on its
          // boundary: minimize over every edge of every convex piece, in
          // deterministic piece/edge order with strict-< so the first
          // minimal edge wins ties.
          slot.on_boundary = true;
          bool have = false;
          for (const ConvexPolygon& piece : ovr.region.pieces()) {
            const std::vector<Point>& ring = piece.vertices();
            for (size_t e = 0; e < ring.size(); ++e) {
              double edge_cost = 0.0;
              const Point p = MinimizeOnSegment(
                  points, ring[e], ring[(e + 1) % ring.size()], &edge_cost);
              if (!have || edge_cost < fw_cost) {
                have = true;
                where = p;
                fw_cost = edge_cost;
              }
            }
          }
        }
        slot.candidate.location = where;
        slot.candidate.cost = fw_cost + offset;
        slot.candidate.group = ovr.pois;
        slot.candidate.criteria = CandidateCriteria(query, ovr.pois, where);
        slot.solved = true;
      });
  // The token latches, so a solve it cut short is caught here.
  if (TokenExpired(options.exec.cancel)) {
    result.status = StatusCode::kCancelled;
    return result;
  }
  for (const Slot& slot : slots) {
    if (!slot.solved) continue;
    if (slot.on_boundary) ++result.boundary_solves;
    const SiteCandidate& c = slot.candidate;
    if (!result.feasible || c.cost < result.best.cost ||
        (!(result.best.cost < c.cost) &&
         GroupBefore(c.group, result.best.group))) {
      result.feasible = true;
      result.best = c;
    }
  }
  span.Counter("clipped_ovrs", static_cast<int64_t>(result.clipped_ovrs));
  span.Counter("boundary_solves",
               static_cast<int64_t>(result.boundary_solves));
  return result;
}

ConstrainedMolqResult ConstrainedMolqFromMovd(const MolqQuery& query,
                                              const Movd& movd,
                                              const QueryConstraint& constraint,
                                              const Rect& search_space,
                                              const CandidateOptions& options) {
  MOVD_CHECK_MSG(!movd.ovrs.empty() && !search_space.Empty(),
                 "constrained MOLQ needs a non-empty MOVD and search space");
  const Region feasible = BuildFeasibleRegion(constraint, search_space);
  const Movd clipped = ClipMovdToFeasible(movd, feasible);
  return ConstrainedFromClippedMovd(query, clipped, options);
}

ConstrainedGridReferenceResult ConstrainedGridReference(
    const MolqQuery& query, const QueryConstraint& constraint,
    const Rect& search_space, int resolution) {
  MOVD_CHECK_MSG(resolution >= 2 && !search_space.Empty() &&
                     ValidateConstraint(constraint).ok(),
                 "the grid reference needs resolution >= 2, a non-empty "
                 "search space and a valid constraint");
  ConstrainedGridReferenceResult result;
  const double step = 1.0 / static_cast<double>(resolution - 1);
  for (int iy = 0; iy < resolution; ++iy) {
    for (int ix = 0; ix < resolution; ++ix) {
      const Point p{
          search_space.min_x + search_space.Width() * (ix * step),
          search_space.min_y + search_space.Height() * (iy * step)};
      if (!constraint.boundary.Empty() && !constraint.boundary.Contains(p)) {
        continue;
      }
      bool excluded = false;
      for (const Polygon& exclusion : constraint.exclusions) {
        if (exclusion.SignedArea() > 0.0 && exclusion.Contains(p)) {
          excluded = true;
          break;
        }
      }
      if (excluded) continue;
      const double cost = MinWeightedGroupDistance(query, p);
      if (!result.feasible || cost < result.cost) {
        result.feasible = true;
        result.cost = cost;
        result.location = p;
      }
    }
  }
  if (result.feasible) {
    const std::vector<int32_t> group = ArgMinGroup(query, result.location);
    result.group.reserve(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      result.group.push_back(PoiRef{static_cast<int32_t>(i), group[i]});
    }
  }
  return result;
}

}  // namespace movd
