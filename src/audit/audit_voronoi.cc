#include "audit/audit_voronoi.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "audit/audit_polygon.h"

namespace movd {

AuditReport AuditVoronoiCells(const std::vector<Point>& sites,
                              const std::vector<VoronoiCell>& cells,
                              const Rect& bounds,
                              const VoronoiAuditOptions& options) {
  AuditReport report;

  report.NoteChecks(1);
  if (cells.size() != sites.size()) {
    report.Add(AuditKind::kVoronoiCellCount,
               AuditStrFormat("%zu cells for %zu sites", cells.size(),
                              sites.size()),
               {static_cast<int64_t>(cells.size()),
                static_cast<int64_t>(sites.size())});
    return report;
  }

  const double slack =
      options.bounds_rel_slack * std::max(bounds.Width(), bounds.Height());
  const Rect slack_bounds(bounds.min_x - slack, bounds.min_y - slack,
                          bounds.max_x + slack, bounds.max_y + slack);

  double total_area = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const VoronoiCell& cell = cells[i];
    report.NoteChecks(1);
    if (cell.site != static_cast<int32_t>(i)) {
      report.Add(AuditKind::kVoronoiCellCount,
                 AuditStrFormat("cell %zu tagged with site %d", i, cell.site),
                 {static_cast<int64_t>(i), cell.site});
    }

    if (cell.region.Empty()) {
      // A site strictly inside the bounds always dominates its own
      // location, so its clipped cell cannot be empty.
      report.NoteChecks(1);
      const Point& s = sites[i];
      if (s.x > bounds.min_x && s.x < bounds.max_x && s.y > bounds.min_y &&
          s.y < bounds.max_y) {
        report.Add(AuditKind::kVoronoiEmptyCell,
                   AuditStrFormat("site %zu (%g, %g) is inside the bounds "
                                  "but its cell is empty",
                                  i, s.x, s.y),
                   {static_cast<int64_t>(i)}, {s});
      }
      continue;
    }

    // Convexity / orientation / simplicity of the ring itself.
    AuditReport ring = AuditConvexPolygon(cell.region,
                                          static_cast<int64_t>(i));
    for (const AuditViolation& v : ring.violations()) {
      report.Add(AuditKind::kVoronoiCellNotConvex,
                 AuditStrFormat("cell %zu: %s", i, v.message.c_str()),
                 v.indices, v.witness);
    }
    report.NoteChecks(ring.checks());

    for (size_t k = 0; k < cell.region.VertexCount(); ++k) {
      report.NoteChecks(1);
      const Point& v = cell.region.vertices()[k];
      if (!slack_bounds.Contains(v)) {
        report.Add(AuditKind::kVoronoiVertexOutOfBounds,
                   AuditStrFormat("cell %zu vertex %zu (%g, %g) escapes the "
                                  "clip rectangle",
                                  i, k, v.x, v.y),
                   {static_cast<int64_t>(i), static_cast<int64_t>(k)}, {v});
      }
    }

    report.NoteChecks(1);
    if (!cell.region.Contains(sites[i])) {
      report.Add(AuditKind::kVoronoiSiteNotInCell,
                 AuditStrFormat("site %zu (%g, %g) lies outside its own cell",
                                i, sites[i].x, sites[i].y),
                 {static_cast<int64_t>(i)}, {sites[i]});
    }

    total_area += cell.region.Area();
  }

  // Pairwise-disjoint interiors. Bbox prefilter keeps the quadratic pass
  // tolerable; the audit is opt-in and correctness-first.
  const double overlap_tol = options.overlap_rel_tol * bounds.Area();
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].region.Empty()) continue;
    const Rect bi = cells[i].region.Bbox();
    for (size_t j = i + 1; j < cells.size(); ++j) {
      if (cells[j].region.Empty()) continue;
      if (!bi.Intersects(cells[j].region.Bbox())) continue;
      report.NoteChecks(1);
      const ConvexPolygon inter =
          ConvexPolygon::Intersect(cells[i].region, cells[j].region);
      const double area = inter.Area();
      if (area > overlap_tol) {
        const Point w = inter.Centroid();
        report.Add(AuditKind::kVoronoiCellOverlap,
                   AuditStrFormat("cells %zu and %zu overlap with area %g "
                                  "around (%g, %g)",
                                  i, j, area, w.x, w.y),
                   {static_cast<int64_t>(i), static_cast<int64_t>(j)}, {w});
      }
    }
  }

  // Coverage: the clipped cells tile the bounds.
  report.NoteChecks(1);
  const double gap = std::abs(total_area - bounds.Area());
  if (gap > options.coverage_rel_tol * bounds.Area()) {
    report.Add(AuditKind::kVoronoiCoverage,
               AuditStrFormat("cell areas sum to %g but the bounds cover %g "
                              "(gap %g)",
                              total_area, bounds.Area(), gap),
               {});
  }

  return report;
}

AuditReport AuditVoronoi(const VoronoiDiagram& vd,
                         const VoronoiAuditOptions& options) {
  return AuditVoronoiCells(vd.sites(), vd.cells(), vd.bounds(), options);
}

AuditReport AuditKeptCells(const VoronoiDiagram& full,
                           const VoronoiDiagram& kept,
                           std::span<const uint8_t> keep) {
  AuditReport report;
  report.NoteChecks(1);
  if (kept.cells().size() != full.cells().size() ||
      keep.size() != full.cells().size()) {
    report.Add(AuditKind::kVoronoiKeptCell,
               AuditStrFormat("%zu kept cells and %zu flags for %zu cells",
                              kept.cells().size(), keep.size(),
                              full.cells().size()),
               {});
    return report;
  }
  const auto same_bits = [](const Point& a, const Point& b) {
    return std::bit_cast<uint64_t>(a.x) == std::bit_cast<uint64_t>(b.x) &&
           std::bit_cast<uint64_t>(a.y) == std::bit_cast<uint64_t>(b.y);
  };
  for (size_t i = 0; i < keep.size(); ++i) {
    report.NoteChecks(1);
    const std::vector<Point>& got = kept.cells()[i].region.vertices();
    const std::vector<Point>& want = full.cells()[i].region.vertices();
    const bool ok =
        keep[i] != 0
            ? got.size() == want.size() &&
                  std::equal(got.begin(), got.end(), want.begin(), same_bits)
            : got.empty();
    if (!ok) {
      report.Add(AuditKind::kVoronoiKeptCell,
                 AuditStrFormat("%s cell %zu has %zu vertices, the full "
                                "diagram's %zu",
                                keep[i] != 0 ? "kept" : "dropped", i,
                                got.size(), want.size()),
                 {static_cast<int64_t>(i)});
    }
  }
  return report;
}

}  // namespace movd
