#ifndef MOVD_AUDIT_AUDIT_WEIGHTED_H_
#define MOVD_AUDIT_AUDIT_WEIGHTED_H_

#include <vector>

#include "audit/audit.h"
#include "geom/rect.h"
#include "voronoi/weighted.h"

namespace movd {

/// Dense-grid oracle of the weighted diagram (never on a pipeline path):
/// assigns each cell of a `resolution` x `resolution` grid over `bounds`
/// to the generator that owns its centre under BestWeightedSite, the
/// lattice and owners AuditAdaptiveWeightedCells replays. Each cell's
/// `sample_count` is the number of grid cells it owns, its `hull` the
/// convex hull of their centres, its `cover` their one-cell-dilated outer
/// contours clipped to `bounds`, and its `mbr` a cover of both.
/// O(resolution^2 * n). `threads` parallelises the dominance sampling (by
/// grid row) and the per-site cover extraction; the result is identical
/// for every thread count.
std::vector<WeightedCellApprox> ApproximateWeightedVoronoi(
    const std::vector<WeightedSite>& sites, const Rect& bounds,
    int resolution, int threads = 1);

/// Validates the dense oracle's diagram (ApproximateWeightedVoronoi)
/// against its defining invariants:
///  - one cell per generator, cells[i].site == i;
///  - `empty` consistent with `sample_count`, and empty cells carry no
///    hull/cover/MBR;
///  - per-cell sample counts sum to resolution^2 (every grid cell has
///    exactly one owner);
///  - MBR containment: the hull's bbox and every cover ring's bbox lie
///    inside the cell MBR, and the MBR inside the (slack-expanded) bounds;
///  - dominance re-check: every hull vertex is a dominated sample center —
///    recomputing the weighted distance to all generators (ties to the
///    lowest index, the sampler's rule) must select this cell's generator.
///    The recomputation replays the sampler's arithmetic exactly, so this
///    check is bit-exact, not tolerance-based;
///  - every cover ring is a simple CCW polygon (AuditPolygon).
AuditReport AuditWeightedCells(const std::vector<WeightedSite>& sites,
                               const std::vector<WeightedCellApprox>& cells,
                               const Rect& bounds, int resolution);

/// Validates the adaptive quadtree diagram (BuildWeightedCells, DESIGN.md
/// §11) against its conservative-cover contract:
///  - the structural invariants shared with the dense oracle (cell/site
///    alignment, empty-flag consistency with the sentinel invalid MBR,
///    MBR-in-bounds and cover-in-MBR containment, simple CCW cover rings);
///  - the cross-builder dominance guarantee: every sample center of the
///    EffectiveWeightedResolution(resolution) dense lattice that the
///    BestWeightedSite tie rule assigns to generator i lies inside cell
///    i's cover (and MBR). The replay samples the oracle's lattice through
///    the oracle's own owner function, so the tie rule is asserted to be
///    resolution-independent and builder-independent at once. Because the
///    adaptive covers contain the whole classified dominance region, a
///    single missed sample is a real construction bug, not tolerance
///    noise.
/// The dense-lattice replay costs O(resolution^2 * sites) — the price the
/// construction avoided — so this belongs in opt-in audit sweeps, not on
/// the hot path.
AuditReport AuditAdaptiveWeightedCells(
    const std::vector<WeightedSite>& sites,
    const std::vector<WeightedCellApprox>& cells, const Rect& bounds,
    int resolution);

}  // namespace movd

#endif  // MOVD_AUDIT_AUDIT_WEIGHTED_H_
