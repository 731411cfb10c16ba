#ifndef MOVD_AUDIT_AUDIT_VORONOI_H_
#define MOVD_AUDIT_AUDIT_VORONOI_H_

#include <cstdint>
#include <span>
#include <vector>

#include "audit/audit.h"
#include "geom/rect.h"
#include "voronoi/voronoi.h"

namespace movd {

/// Tolerances for the ordinary-Voronoi audit. Cell vertices are constructed
/// by half-plane clipping, so they carry double rounding; the tolerances
/// absorb that while still catching real structural damage.
struct VoronoiAuditOptions {
  /// Max |sum of cell areas - bounds area| as a fraction of the bounds area.
  double coverage_rel_tol = 1e-6;
  /// Max area of a pairwise cell intersection as a fraction of the bounds
  /// area before it counts as interior overlap (cells legitimately share
  /// boundary slivers up to rounding).
  double overlap_rel_tol = 1e-7;
  /// How far a vertex may poke outside the clip rectangle, as a fraction
  /// of the bounds' larger side.
  double bounds_rel_slack = 1e-9;
};

/// Validates an ordinary Voronoi diagram given as raw data, so tests can
/// audit deliberately corrupted cell sets. Checks:
///  - one cell per site, cells()[i].site == i;
///  - every non-empty cell is a valid convex CCW ring (AuditConvexPolygon);
///  - every cell vertex lies inside the clip rectangle (within slack);
///  - each site lies inside its own cell (exact point-in-convex-polygon),
///    and a site strictly inside the bounds never has an empty cell;
///  - pairwise-disjoint interiors: cells whose bboxes meet have an
///    intersection of negligible area;
///  - coverage: cell areas sum to the bounds area within tolerance.
AuditReport AuditVoronoiCells(const std::vector<Point>& sites,
                              const std::vector<VoronoiCell>& cells,
                              const Rect& bounds,
                              const VoronoiAuditOptions& options = {});

/// Audits a live diagram.
AuditReport AuditVoronoi(const VoronoiDiagram& vd,
                         const VoronoiAuditOptions& options = {});

/// The object filter's seam: `kept` holds one cell per site of `full`, in
/// its site order, with only the cells that `keep` marks clipped
/// (ClipKeptCells or VoronoiDiagram::ClipCells). Reports kVoronoiKeptCell
/// for a kept cell whose ring is not bit-equal to its cell in `full`, and
/// for a dropped cell that is not empty.
AuditReport AuditKeptCells(const VoronoiDiagram& full,
                           std::span<const VoronoiCell> kept,
                           std::span<const uint8_t> keep);

}  // namespace movd

#endif  // MOVD_AUDIT_AUDIT_VORONOI_H_
