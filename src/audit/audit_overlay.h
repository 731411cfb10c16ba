#ifndef MOVD_AUDIT_AUDIT_OVERLAY_H_
#define MOVD_AUDIT_AUDIT_OVERLAY_H_

#include <vector>

#include "audit/audit.h"
#include "model/movd_model.h"
#include "geom/rect.h"

namespace movd {

/// Validates the result of the MOVD overlap stage against the basic MOVDs
/// it was folded from. For every output OVR:
///  - the poi list is sorted and unique by (set, object);
///  - the MBR is non-empty and inside the (slack-expanded) search space;
///  - RRB (BoundaryMode::kRealRegion): the region is non-empty, every
///    piece is a valid convex CCW ring, and the region's bbox is contained
///    in the MBR within rounding slack (basic weighted OVRs carry an MBR
///    that is deliberately larger than the region bbox, so containment —
///    not equality — is the invariant that survives every pipeline stage);
///  - source consistency: for each input MOVD, some source OVR's pois are
///    a subset of the output's pois (the OVR descends from it), the output
///    MBR is contained in that source's MBR, and in RRB mode each region
///    piece's centroid lies inside the source region (within clipping
///    rounding slack). An overlap region leaking outside any of the
///    dominance regions that generated it is exactly the class of bug the
///    paper's Property 4 forbids.
/// And across OVRs: no two hold the same poi group (AuditUniqueGroups).
AuditReport AuditMovdOverlay(const Movd& result,
                             const std::vector<Movd>& inputs,
                             BoundaryMode mode, const Rect& search_space);

/// The overlay invariant of model/movd_model.h: no two OVRs of `movd` hold
/// the same poi group. Reports kOverlayRepeatedGroup per repeat, with the
/// two OVR indices as the witness.
AuditReport AuditUniqueGroups(const Movd& movd);

}  // namespace movd

#endif  // MOVD_AUDIT_AUDIT_OVERLAY_H_
