#ifndef MOVD_MODEL_MOVD_MODEL_H_
#define MOVD_MODEL_MOVD_MODEL_H_

#include <cstdint>
#include <vector>

#include "model/object.h"
#include "geom/polygon.h"
#include "geom/rect.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace movd {

/// Which boundary representation the MOVD pipeline maintains (paper §5.2
/// vs §5.3): real regions (RRB) or minimum bounding rectangles (MBRB).
enum class BoundaryMode {
  kRealRegion,  ///< RRB: exact piecewise-convex overlap regions
  kMbr,         ///< MBRB: MBRs only; false positives possible
};

/// An Overlapped Voronoi Region (paper Eq. 12): the intersection of one
/// dominance region per overlapped diagram, with the generating objects.
struct Ovr {
  /// Real region (maintained in RRB mode; empty in MBRB mode).
  Region region;
  /// The region's MBR (RRB) or the intersection of input MBRs (MBRB).
  Rect mbr;
  /// One generating object per object type, sorted by (set, object).
  std::vector<PoiRef> pois;
};

/// A Minimum Overlapped Voronoi Diagram: an OVD with empty OVRs removed
/// (paper Eq. 13). The identity element MOVD(∅) = {R} is represented by a
/// single OVR covering the search space with no pois (Eq. 14).
///
/// Overlay invariant: one OVR per poi group, as the paper defines an OVR
/// by its combination. A basic MOVD has one OVR per distinct site, and an
/// Overlap step emits at most one OVR per operand pair; when the operands
/// cover disjoint object sets, as every pipeline fold's layers do, the
/// merged group identifies the pair. So OverlapAll (pruned or not),
/// serve's fold, PatchOverlay and ClipMovdToFeasible (one OVR out per OVR
/// in, at most) all keep it. Algebra overlays such as A ⊕ A share a set
/// and may repeat groups; no pipeline path builds one. The optimizer
/// stages treat each OVR as its own combination; AuditUniqueGroups
/// (audit/audit_overlay.h) checks the invariant.
struct Movd {
  std::vector<Ovr> ovrs;

  /// Bytes of region/MBR + poi storage, the paper's memory-consumption
  /// metric (Figs. 13, 14d): RRB pays sizeof(Point) per stored vertex,
  /// MBRB pays exactly two points per OVR.
  size_t MemoryBytes(BoundaryMode mode) const;

  /// Total vertices stored across OVR regions (RRB) — Fig. 13's point count.
  size_t VertexCount() const;
};

/// MOVD(∅) = {R}: the overlap identity (paper Property 12).
Movd IdentityMovd(const Rect& search_space);

/// A basic MOVD from an ordinary Voronoi diagram (paper Property 7:
/// single-set MOVDs are Voronoi diagrams). `set` tags the generated pois;
/// `object_of_site[i]` maps diagram site i back to the object index in the
/// query's set (the diagram deduplicates site locations), one object per
/// site. The OVRs come in object order, the canonical order of a basic
/// MOVD (model/update_model.h). Each cell's ring moves into its OVR; pass
/// the diagram as an rvalue to skip the copy.
Movd MovdFromVoronoi(VoronoiDiagram diagram, int32_t set,
                     const std::vector<int32_t>& object_of_site);

/// MovdFromVoronoi on cells already taken out of their diagram
/// (VoronoiDiagram::TakeCells), so the diagram's sites and neighbour table
/// stay readable meanwhile. Empty cells make no OVR.
Movd MovdFromCells(std::vector<VoronoiCell> cells, int32_t set,
                   const std::vector<int32_t>& object_of_site);

/// What MovdFromWeightedApprox did with the cells' covers.
struct WeightedCoverStats {
  /// Region pieces over all OVRs emitted (rectangles, or 1 per MBR).
  size_t pieces = 0;
  /// Cells with a cover whose decomposition came up short of the ring
  /// area, so their region fell back to the MBR.
  size_t mbr_fallbacks = 0;
};

/// A basic MOVD from a grid-approximated weighted Voronoi diagram (§5.3).
/// Each cell's region is its lattice cover split into interior-disjoint
/// rectangles (RectilinearSlabs), so the region is exactly the cover and
/// its piece count is linear in the cover size. A cell without a cover,
/// or whose rectangles fall short of the cover's area (possible only for
/// a ring with an edge that is not axis-parallel), gets its conservative
/// MBR instead. Empty cells are dropped, per the MOVD definition. Adds to
/// `*stats` when it is not null.
Movd MovdFromWeightedApprox(const std::vector<WeightedCellApprox>& cells,
                            int32_t set,
                            const std::vector<int32_t>& object_of_site,
                            WeightedCoverStats* stats = nullptr);

}  // namespace movd

#endif  // MOVD_MODEL_MOVD_MODEL_H_
