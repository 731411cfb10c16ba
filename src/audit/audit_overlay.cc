#include "audit/audit_overlay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "geom/point.h"

namespace movd {
namespace {

// Distance from `p` to the boundary of a convex CCW polygon; 0 when inside.
double DistanceToConvex(const ConvexPolygon& poly, const Point& p) {
  if (poly.Empty()) return std::numeric_limits<double>::infinity();
  if (poly.Contains(p)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  const auto& v = poly.vertices();
  for (size_t i = 0; i < v.size(); ++i) {
    const Point& a = v[i];
    const Point& b = v[(i + 1) % v.size()];
    const Point ab = b - a;
    const double len2 = ab.Norm2();
    double t = len2 > 0.0 ? (p - a).Dot(ab) / len2 : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    best = std::min(best, Distance(p, a + ab * t));
  }
  return best;
}

// Distance from `p` to a region (union of convex pieces); 0 when inside.
double DistanceToRegion(const Region& region, const Point& p) {
  double best = std::numeric_limits<double>::infinity();
  for (const ConvexPolygon& piece : region.pieces()) {
    best = std::min(best, DistanceToConvex(piece, p));
    if (best == 0.0) break;
  }
  return best;
}

// Validity of one region piece of an overlap OVR. Overlap regions are
// second-generation constructed geometry — a clip of already-clipped
// cells — so exact convexity does not survive rounding: the clipper emits
// near-degenerate slivers with marginally negative area and big pieces
// with exactly-clockwise wobbles at nearly-collinear vertices. Degenerate
// slivers (|area| <= area_tol) are accepted outright; anything larger must
// be finite, duplicate-free, CCW and convex up to `cross_tol` on the turn
// cross products. A genuinely corrupted piece fails by orders of
// magnitude, so the tolerances cost no detection power.
void AuditClippedPiece(const ConvexPolygon& piece, size_t r, size_t p,
                       double area_tol, double cross_tol,
                       AuditReport* report) {
  const std::vector<Point>& v = piece.vertices();
  const size_t n = v.size();
  report->NoteChecks(1);
  if (n < 3) {
    if (n != 0) {
      report->Add(AuditKind::kOverlayRegion,
                  AuditStrFormat("OVR %zu piece %zu has %zu vertices "
                                 "(want 0 or >= 3)",
                                 r, p, n),
                  {static_cast<int64_t>(r), static_cast<int64_t>(p)});
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    report->NoteChecks(1);
    if (!std::isfinite(v[i].x) || !std::isfinite(v[i].y)) {
      report->Add(AuditKind::kOverlayRegion,
                  AuditStrFormat("OVR %zu piece %zu vertex %zu is not finite",
                                 r, p, i),
                  {static_cast<int64_t>(r), static_cast<int64_t>(p),
                   static_cast<int64_t>(i)});
      return;
    }
  }
  double area2 = 0.0;
  for (size_t i = 0; i < n; ++i) area2 += v[i].Cross(v[(i + 1) % n]);
  report->NoteChecks(1);
  if (std::abs(0.5 * area2) <= area_tol) return;  // rounding sliver
  if (area2 <= 0.0) {
    report->Add(AuditKind::kOverlayRegion,
                AuditStrFormat("OVR %zu piece %zu signed area %g "
                               "(want > 0: CCW)",
                               r, p, 0.5 * area2),
                {static_cast<int64_t>(r), static_cast<int64_t>(p)});
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    report->NoteChecks(1);
    const Point& a = v[i];
    const Point& b = v[(i + 1) % n];
    const Point& c = v[(i + 2) % n];
    const double cross = (b - a).Cross(c - b);
    if (cross < -cross_tol) {
      report->Add(AuditKind::kOverlayRegion,
                  AuditStrFormat("OVR %zu piece %zu: clockwise turn %g at "
                                 "vertex %zu (%g, %g)",
                                 r, p, cross, (i + 1) % n, b.x, b.y),
                  {static_cast<int64_t>(r), static_cast<int64_t>(p),
                   static_cast<int64_t>((i + 1) % n)},
                  {b});
    }
  }
}

}  // namespace

AuditReport AuditMovdOverlay(const Movd& result,
                             const std::vector<Movd>& inputs,
                             BoundaryMode mode, const Rect& search_space) {
  AuditReport report;

  const double diag = std::sqrt(search_space.Width() * search_space.Width() +
                                search_space.Height() *
                                    search_space.Height());
  const double slack = 1e-9 * diag;
  // Clipping rounds constructed intersection vertices, so a piece centroid
  // can sit marginally outside the source region it descends from.
  const double containment_tol = 1e-7 * diag;
  // Piece-validity tolerances (see AuditClippedPiece): slivers below
  // area_tol are rounding debris; turn cross products above -cross_tol are
  // nearly-collinear wobbles.
  const double area_tol = 1e-9 * search_space.Width() * search_space.Height();
  const double cross_tol = 1e-12 * diag * diag;
  const Rect slack_space(search_space.min_x - slack,
                         search_space.min_y - slack,
                         search_space.max_x + slack,
                         search_space.max_y + slack);

  for (size_t r = 0; r < result.ovrs.size(); ++r) {
    const Ovr& ovr = result.ovrs[r];

    // Poi list sorted and unique by (set, object).
    report.NoteChecks(1);
    for (size_t k = 0; k + 1 < ovr.pois.size(); ++k) {
      if (!(ovr.pois[k] < ovr.pois[k + 1])) {
        report.Add(AuditKind::kOverlayPoiOrder,
                   AuditStrFormat("OVR %zu poi list out of order at slot %zu "
                                  "((%d, %d) then (%d, %d))",
                                  r, k, ovr.pois[k].set, ovr.pois[k].object,
                                  ovr.pois[k + 1].set,
                                  ovr.pois[k + 1].object),
                   {static_cast<int64_t>(r), static_cast<int64_t>(k)});
        break;
      }
    }

    report.NoteChecks(2);
    if (ovr.mbr.Empty()) {
      report.Add(AuditKind::kOverlayMbr,
                 AuditStrFormat("OVR %zu has an empty MBR", r),
                 {static_cast<int64_t>(r)});
      continue;
    }
    if (!slack_space.Contains(ovr.mbr)) {
      report.Add(AuditKind::kOverlayMbr,
                 AuditStrFormat("OVR %zu MBR [%g, %g]x[%g, %g] escapes the "
                                "search space",
                                r, ovr.mbr.min_x, ovr.mbr.max_x,
                                ovr.mbr.min_y, ovr.mbr.max_y),
                 {static_cast<int64_t>(r)});
    }

    if (mode == BoundaryMode::kRealRegion) {
      report.NoteChecks(1);
      if (ovr.region.Empty()) {
        report.Add(AuditKind::kOverlayRegion,
                   AuditStrFormat("OVR %zu has no region in RRB mode", r),
                   {static_cast<int64_t>(r)});
        continue;
      }
      for (size_t p = 0; p < ovr.region.pieces().size(); ++p) {
        AuditClippedPiece(ovr.region.pieces()[p], r, p, area_tol, cross_tol,
                          &report);
      }
      // The MBR is a conservative cover of the region: equal to its bbox
      // for overlap outputs, possibly larger for basic weighted cells
      // (whose MBR covers the whole dominance approximation).
      report.NoteChecks(1);
      const Rect bbox = ovr.region.Bbox();
      const Rect grown(ovr.mbr.min_x - slack, ovr.mbr.min_y - slack,
                       ovr.mbr.max_x + slack, ovr.mbr.max_y + slack);
      if (!grown.Contains(bbox)) {
        report.Add(AuditKind::kOverlayMbr,
                   AuditStrFormat("OVR %zu region bbox leaks outside its "
                                  "MBR",
                                  r),
                   {static_cast<int64_t>(r)});
      }
    }

    // Source consistency against every input MOVD.
    for (size_t in = 0; in < inputs.size(); ++in) {
      const Movd& input = inputs[in];
      report.NoteChecks(1);
      const Ovr* source = nullptr;
      for (const Ovr& cand : input.ovrs) {
        const bool subset = std::includes(ovr.pois.begin(), ovr.pois.end(),
                                          cand.pois.begin(),
                                          cand.pois.end());
        if (subset && !cand.pois.empty()) {
          source = &cand;
          break;
        }
      }
      if (source == nullptr) {
        report.Add(AuditKind::kOverlaySource,
                   AuditStrFormat("OVR %zu matches no OVR of input %zu", r,
                                  in),
                   {static_cast<int64_t>(r), static_cast<int64_t>(in)});
        continue;
      }

      report.NoteChecks(1);
      const Rect grown(source->mbr.min_x - slack, source->mbr.min_y - slack,
                       source->mbr.max_x + slack,
                       source->mbr.max_y + slack);
      if (!grown.Contains(ovr.mbr)) {
        report.Add(AuditKind::kOverlaySource,
                   AuditStrFormat("OVR %zu MBR leaks outside its input-%zu "
                                  "source MBR",
                                  r, in),
                   {static_cast<int64_t>(r), static_cast<int64_t>(in)});
      }

      if (mode == BoundaryMode::kRealRegion && !source->region.Empty()) {
        for (size_t p = 0; p < ovr.region.pieces().size(); ++p) {
          const ConvexPolygon& piece = ovr.region.pieces()[p];
          if (piece.Empty()) continue;
          // Rounding slivers (see AuditClippedPiece) have a near-zero area
          // denominator, so their centroid is numerically meaningless —
          // skip them here too.
          if (std::abs(piece.Area()) <= area_tol) continue;
          report.NoteChecks(1);
          const Point c = piece.Centroid();
          const double d = DistanceToRegion(source->region, c);
          if (d > containment_tol) {
            report.Add(
                AuditKind::kOverlaySource,
                AuditStrFormat("OVR %zu piece %zu centroid (%g, %g) lies %g "
                               "outside its input-%zu source region",
                               r, p, c.x, c.y, d, in),
                {static_cast<int64_t>(r), static_cast<int64_t>(p),
                 static_cast<int64_t>(in)},
                {c});
          }
        }
      }
    }
  }

  report.Merge(AuditUniqueGroups(result));
  return report;
}

AuditReport AuditUniqueGroups(const Movd& movd) {
  AuditReport report;
  std::map<std::vector<PoiRef>, size_t> first_holder;
  for (size_t i = 0; i < movd.ovrs.size(); ++i) {
    report.NoteChecks(1);
    const auto [it, fresh] = first_holder.emplace(movd.ovrs[i].pois, i);
    if (!fresh) {
      report.Add(AuditKind::kOverlayRepeatedGroup,
                 AuditStrFormat("OVRs %zu and %zu hold the same group of %zu "
                                "objects",
                                it->second, i, movd.ovrs[i].pois.size()),
                 {static_cast<int64_t>(it->second), static_cast<int64_t>(i)});
    }
  }
  return report;
}

}  // namespace movd
