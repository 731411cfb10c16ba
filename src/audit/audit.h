#ifndef MOVD_AUDIT_AUDIT_H_
#define MOVD_AUDIT_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.h"

namespace movd {

/// Structural-invariant audit layer (see DESIGN.md §7).
///
/// The MOLQ pipeline silently produces wrong optima when a structural
/// invariant breaks upstream — a non-Delaunay triangulation, a non-convex
/// ordinary Voronoi cell, a weighted-cell hull leaking outside its dominance
/// region. The auditors in this directory re-validate those invariants with
/// the same exact predicates the constructions use and report violations as
/// structured data (kind + witness) instead of aborting, so a sweep can
/// tabulate every failure of a run rather than dying on the first.

/// Every invariant the auditors check, one enumerator per failure mode.
enum class AuditKind {
  // AuditDelaunay
  kDelaunayIndexRange,        ///< vertex/neighbor index out of range
  kDelaunayOrientation,       ///< triangle not counterclockwise / degenerate
  kDelaunayNeighborSymmetry,  ///< neighbor link not mirrored across the edge
  kDelaunayEdgeManifold,      ///< an edge bounds more than two triangles
  kDelaunayEuler,             ///< V - E + F != 2
  kDelaunayCircumcircle,      ///< a point inside a triangle's circumcircle
  kDelaunayHullEdge,          ///< a convex-hull edge is not a Delaunay edge
  // AuditVoronoi
  kVoronoiCellCount,        ///< cells() does not line up with sites()
  kVoronoiCellNotConvex,    ///< a cell polygon fails convexity/orientation
  kVoronoiVertexOutOfBounds,///< a cell vertex escapes the clip rectangle
  kVoronoiSiteNotInCell,    ///< a site outside its own cell
  kVoronoiEmptyCell,        ///< an in-bounds site with an empty cell
  kVoronoiCellOverlap,      ///< two cell interiors intersect
  kVoronoiCoverage,         ///< cell areas do not sum to the bounds area
  kVoronoiKeptCell,         ///< a kept cell differs from the full diagram's
  // AuditWeightedCells
  kWeightedCellCount,   ///< cell vector does not line up with the sites
  kWeightedEmptyFlag,   ///< `empty` inconsistent with `sample_count`
  kWeightedContainment, ///< hull/cover escapes the MBR, or MBR the bounds
  kWeightedDominance,   ///< a hull vertex not dominated by its generator
  kWeightedSampleCount, ///< per-cell sample counts do not sum to the grid
  kWeightedCoverRing,   ///< a cover contour is not a simple CCW ring
  kWeightedCoverMiss,   ///< a dominated lattice sample escapes its cover
  // AuditMovdOverlay
  kOverlayPoiOrder,    ///< poi list not sorted/unique by (set, object)
  kOverlayMbr,         ///< OVR MBR empty, outside the search space, or
                       ///< inconsistent with the OVR's region
  kOverlayRegion,      ///< RRB region empty or with an invalid piece
  kOverlaySource,      ///< no source OVR matches, or the OVR leaks outside
                       ///< a source OVR it claims to descend from
  kOverlayRepeatedGroup,  ///< two OVRs hold the same poi group
  // AuditPolygon / AuditConvexPolygon
  kPolygonVertexCount,      ///< non-empty ring with fewer than 3 vertices
  kPolygonNonFinite,        ///< NaN/inf coordinate
  kPolygonDuplicateVertex,  ///< consecutive duplicate vertices
  kPolygonOrientation,      ///< ring is clockwise or has zero signed area
  kPolygonNotConvex,        ///< clockwise turn in a ConvexPolygon
  kPolygonSelfIntersection, ///< two non-adjacent edges intersect
  // Query-algebra answer validators (audit_query.cc)
  kQueryGroupShape,    ///< group not sorted one-per-set, or criteria size
                       ///< does not match the group
  kQueryCostMismatch,  ///< cost/criteria disagree with an independent WD
                       ///< recomputation at the reported location
  kQueryOrder,         ///< result sequence violates its documented tie order
  kQueryDominated,     ///< a reported skyline member dominated by another
  kQueryDiversity,     ///< a selected pair closer than the min distance
  kQueryInfeasible,    ///< a constrained answer outside the feasible region
  // Patched-vs-rebuilt equivalence (audit_update.cc)
  kPatchedOvrCount,    ///< patched artifact OVR count differs from rebuild
  kPatchedOvrMismatch, ///< a patched OVR differs bytewise from the rebuild
};

/// Short stable identifier for a kind, e.g. "delaunay-circumcircle".
const char* AuditKindName(AuditKind kind);

/// One invariant violation with enough of a witness to reproduce it:
/// structure-specific indices (triangle/cell/vertex numbers) and the
/// offending coordinates.
struct AuditViolation {
  AuditKind kind;
  std::string message;           ///< human-readable, embeds witness values
  std::vector<int64_t> indices;  ///< witness indices, auditor-specific
  std::vector<Point> witness;    ///< witness coordinates, auditor-specific
};

/// The outcome of one audit: every violation found plus the number of
/// individual invariant checks that ran (so "0 violations" is meaningful).
class AuditReport {
 public:
  bool ok() const { return violations_.empty(); }
  const std::vector<AuditViolation>& violations() const { return violations_; }
  uint64_t checks() const { return checks_; }

  void Add(AuditKind kind, std::string message,
           std::vector<int64_t> indices = {}, std::vector<Point> witness = {});

  /// Counts `n` executed invariant checks toward checks().
  void NoteChecks(uint64_t n) { checks_ += n; }

  /// Absorbs `other`'s violations and check count.
  void Merge(AuditReport other);

  size_t CountKind(AuditKind kind) const;

  /// "kind: message" per violation; what the pipeline hooks export into
  /// MolqStats::audit_violations.
  std::vector<std::string> Messages() const;

  /// One line: "ok (N checks)" or "K violation(s) in N checks: ...".
  std::string Summary() const;

 private:
  std::vector<AuditViolation> violations_;
  uint64_t checks_ = 0;
};

/// printf-style formatting into a std::string; shared by the auditors.
std::string AuditStrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace movd

#endif  // MOVD_AUDIT_AUDIT_H_
