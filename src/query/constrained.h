#ifndef MOVD_QUERY_CONSTRAINED_H_
#define MOVD_QUERY_CONSTRAINED_H_

#include "geom/polygon.h"
#include "geom/rect.h"
#include "model/movd_model.h"
#include "model/query_model.h"
#include "query/candidates.h"

namespace movd {

/// Constrained MOLQ (DESIGN.md §13.3): the optimal location restricted to a
/// feasible set — inside the constraint boundary (or the whole search space
/// when no boundary is given) and not strictly inside any exclusion ring.
/// RRB only: the optimizer clips real overlap regions, which MBRB does not
/// store.
///
/// The feasible set as interior-disjoint convex pieces:
///   (boundary triangulated, or the search-space rect) minus each exclusion
/// via half-plane peeling of exclusion triangles. Closed-set semantics:
/// exclusion boundaries remain feasible, and zero-area exclusions have no
/// interior, hence change nothing. `constraint` must satisfy
/// ValidateConstraint.
Region BuildFeasibleRegion(const QueryConstraint& constraint,
                           const Rect& search_space);

/// Every OVR's region intersected with `feasible`; OVRs whose feasible part
/// is empty (area below Region::kDefaultMinPieceArea) are dropped and MBRs
/// are recomputed from the clipped regions. Requires an RRB MOVD (every OVR
/// carries a non-empty real region). Emits at most one OVR per input OVR,
/// so the clip keeps the overlay invariant of model/movd_model.h.
Movd ClipMovdToFeasible(const Movd& movd, const Region& feasible);

/// The constrained optimum over a clipped MOVD. Per OVR: solve the
/// unconstrained Fermat–Weber problem; if the optimum lies in the clipped
/// region it is the OVR's answer (the cost is convex, so an interior
/// feasible optimum is globally optimal there). Otherwise the constrained
/// optimum lies on the region boundary: every edge of every convex piece is
/// minimized by a fixed-iteration golden-section search (deterministic —
/// no data-dependent stopping), with both endpoints evaluated as guards.
/// Ties between OVRs break by GroupBefore; `feasible` is false when the
/// clipped MOVD is empty. options.exec.cancel is polled per OVR and every
/// 256 Weiszfeld iterations; a fired token yields kCancelled.
ConstrainedMolqResult ConstrainedFromClippedMovd(
    const MolqQuery& query, const Movd& clipped,
    const CandidateOptions& options = {});

/// Convenience composition: BuildFeasibleRegion + ClipMovdToFeasible +
/// ConstrainedFromClippedMovd. MOVD_CHECKs that the constraint validates
/// and the MOVD is RRB.
ConstrainedMolqResult ConstrainedMolqFromMovd(
    const MolqQuery& query, const Movd& movd,
    const QueryConstraint& constraint, const Rect& search_space,
    const CandidateOptions& options = {});

/// Independent brute-force reference: evaluates MinWeightedGroupDistance on
/// a `resolution` x `resolution` lattice over the search space, keeping the
/// best feasible point (row-major scan order breaks ties). Feasibility is
/// tested directly on the constraint polygons, not on the clipped pieces,
/// so the reference shares no geometry code with the optimizer. Grid points
/// on an exclusion boundary are skipped (a conservative under-approximation
/// of the closed feasible set — immaterial at test tolerances, which scale
/// with the lattice spacing).
struct ConstrainedGridReferenceResult {
  bool feasible = false;
  Point location;
  double cost = 0.0;
  std::vector<PoiRef> group;
};
ConstrainedGridReferenceResult ConstrainedGridReference(
    const MolqQuery& query, const QueryConstraint& constraint,
    const Rect& search_space, int resolution);

}  // namespace movd

#endif  // MOVD_QUERY_CONSTRAINED_H_
