#include "audit/audit.h"

#include <cstdarg>
#include <cstdio>

namespace movd {

const char* AuditKindName(AuditKind kind) {
  switch (kind) {
    case AuditKind::kDelaunayIndexRange: return "delaunay-index-range";
    case AuditKind::kDelaunayOrientation: return "delaunay-orientation";
    case AuditKind::kDelaunayNeighborSymmetry:
      return "delaunay-neighbor-symmetry";
    case AuditKind::kDelaunayEdgeManifold: return "delaunay-edge-manifold";
    case AuditKind::kDelaunayEuler: return "delaunay-euler";
    case AuditKind::kDelaunayCircumcircle: return "delaunay-circumcircle";
    case AuditKind::kDelaunayHullEdge: return "delaunay-hull-edge";
    case AuditKind::kVoronoiCellCount: return "voronoi-cell-count";
    case AuditKind::kVoronoiCellNotConvex: return "voronoi-cell-not-convex";
    case AuditKind::kVoronoiVertexOutOfBounds:
      return "voronoi-vertex-out-of-bounds";
    case AuditKind::kVoronoiSiteNotInCell: return "voronoi-site-not-in-cell";
    case AuditKind::kVoronoiEmptyCell: return "voronoi-empty-cell";
    case AuditKind::kVoronoiCellOverlap: return "voronoi-cell-overlap";
    case AuditKind::kVoronoiCoverage: return "voronoi-coverage";
    case AuditKind::kWeightedCellCount: return "weighted-cell-count";
    case AuditKind::kWeightedEmptyFlag: return "weighted-empty-flag";
    case AuditKind::kWeightedContainment: return "weighted-containment";
    case AuditKind::kWeightedDominance: return "weighted-dominance";
    case AuditKind::kWeightedSampleCount: return "weighted-sample-count";
    case AuditKind::kWeightedCoverRing: return "weighted-cover-ring";
    case AuditKind::kWeightedCoverMiss: return "weighted-cover-miss";
    case AuditKind::kOverlayPoiOrder: return "overlay-poi-order";
    case AuditKind::kOverlayMbr: return "overlay-mbr";
    case AuditKind::kOverlayRegion: return "overlay-region";
    case AuditKind::kOverlaySource: return "overlay-source";
    case AuditKind::kOverlayRepeatedGroup: return "overlay-repeated-group";
    case AuditKind::kPolygonVertexCount: return "polygon-vertex-count";
    case AuditKind::kPolygonNonFinite: return "polygon-non-finite";
    case AuditKind::kPolygonDuplicateVertex: return "polygon-duplicate-vertex";
    case AuditKind::kPolygonOrientation: return "polygon-orientation";
    case AuditKind::kPolygonNotConvex: return "polygon-not-convex";
    case AuditKind::kPolygonSelfIntersection:
      return "polygon-self-intersection";
    case AuditKind::kQueryGroupShape: return "query-group-shape";
    case AuditKind::kQueryCostMismatch: return "query-cost-mismatch";
    case AuditKind::kQueryOrder: return "query-order";
    case AuditKind::kQueryDominated: return "query-dominated";
    case AuditKind::kQueryDiversity: return "query-diversity";
    case AuditKind::kQueryInfeasible: return "query-infeasible";
    case AuditKind::kPatchedOvrCount: return "patched-ovr-count";
    case AuditKind::kPatchedOvrMismatch: return "patched-ovr-mismatch";
  }
  return "unknown";
}

void AuditReport::Add(AuditKind kind, std::string message,
                      std::vector<int64_t> indices,
                      std::vector<Point> witness) {
  violations_.push_back(AuditViolation{kind, std::move(message),
                                       std::move(indices),
                                       std::move(witness)});
}

void AuditReport::Merge(AuditReport other) {
  checks_ += other.checks_;
  violations_.reserve(violations_.size() + other.violations_.size());
  for (AuditViolation& v : other.violations_) {
    violations_.push_back(std::move(v));
  }
}

size_t AuditReport::CountKind(AuditKind kind) const {
  size_t n = 0;
  for (const AuditViolation& v : violations_) n += v.kind == kind ? 1 : 0;
  return n;
}

std::vector<std::string> AuditReport::Messages() const {
  std::vector<std::string> out;
  out.reserve(violations_.size());
  for (const AuditViolation& v : violations_) {
    out.push_back(std::string(AuditKindName(v.kind)) + ": " + v.message);
  }
  return out;
}

std::string AuditReport::Summary() const {
  if (ok()) {
    return AuditStrFormat("ok (%llu checks)",
                          static_cast<unsigned long long>(checks_));
  }
  std::string s = AuditStrFormat(
      "%zu violation(s) in %llu checks:", violations_.size(),
      static_cast<unsigned long long>(checks_));
  for (const std::string& m : Messages()) {
    s += "\n  ";
    s += m;
  }
  return s;
}

std::string AuditStrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace movd
