#ifndef MOVD_GEOM_POLYGON_H_
#define MOVD_GEOM_POLYGON_H_

#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace movd {

/// A convex polygon with vertices in counterclockwise order.
///
/// This is the workhorse region representation of the library: ordinary
/// Voronoi cells are convex, and intersections of convex polygons stay
/// convex, so the entire RRB pipeline (paper §5.2) runs on this type.
/// Polygons with fewer than 3 vertices are empty by definition.
class ConvexPolygon {
 public:
  ConvexPolygon() = default;

  /// Takes ownership of a CCW convex vertex ring (no repeated last vertex).
  /// Collapses consecutive duplicate vertices. MOVD_DCHECKs convexity.
  explicit ConvexPolygon(std::vector<Point> vertices);

  /// The four corners of `r`, counterclockwise. Empty rect -> empty polygon.
  static ConvexPolygon FromRect(const Rect& r);

  /// Wraps an already-validated CCW ring without convexity checking. For
  /// trusted sources only (deserialization, clipper output): constructed
  /// intersection vertices can be convex only up to double rounding, which
  /// the checked constructor would reject in debug builds.
  static ConvexPolygon FromTrustedRing(std::vector<Point> vertices);

  /// Intersection of two convex polygons (Sutherland–Hodgman: clips `a` by
  /// every edge of `b`). Result is convex and CCW; may be empty. Bit-equal
  /// to clipping a copy of `a` with ClipByHalfPlane edge by edge, but the
  /// intermediate rings live in thread-local scratch: the only allocation
  /// is the result's.
  static ConvexPolygon Intersect(const ConvexPolygon& a,
                                 const ConvexPolygon& b);

  const std::vector<Point>& vertices() const { return vertices_; }
  bool Empty() const { return vertices_.size() < 3; }
  size_t VertexCount() const { return vertices_.size(); }

  /// Unsigned area (shoelace).
  double Area() const;

  /// Area centroid; valid only for non-empty polygons.
  Point Centroid() const;

  /// Minimum bounding rectangle.
  Rect Bbox() const;

  /// True when `p` is inside or on the boundary (exact predicates).
  bool Contains(const Point& p) const;

  /// Clips in place against the half-plane to the left of the directed line
  /// a->b (points exactly on the line are kept).
  void ClipByHalfPlane(const Point& a, const Point& b);

  /// Removes degenerate output: if the area is below `min_area` the polygon
  /// becomes empty. Used to discard boundary-only overlap slivers
  /// (paper Property 4 guarantees real OVRs overlap only on boundaries).
  void DropIfSliver(double min_area);

 private:
  std::vector<Point> vertices_;
};

/// One Sutherland–Hodgman step, the kernel of ClipByHalfPlane, Intersect
/// and CanonicalVoronoiCell: replaces `*out` with the part of the non-empty
/// CCW ring `in` left of the directed line a->b (points on the line are
/// kept), consecutive duplicates removed, or with nothing when fewer than 3
/// vertices remain. `out` must not alias `in`. Allocates only when `*out`
/// lacks the capacity, so callers that alternate two scratch rings clip
/// without allocating.
void ClipRing(std::span<const Point> in, const Point& a, const Point& b,
              std::vector<Point>* out);

/// A simple polygon (possibly concave) with vertices in CCW order.
/// Used for polygonised weighted Voronoi cells and as a general input type;
/// converted to a piecewise-convex Region before entering the RRB pipeline.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices);

  const std::vector<Point>& vertices() const { return vertices_; }
  bool Empty() const { return vertices_.size() < 3; }

  /// Signed area: positive for CCW rings.
  double SignedArea() const;

  /// True when every vertex turn is non-clockwise.
  bool IsConvex() const;

  Rect Bbox() const;

  /// Point-in-polygon by crossing number; boundary points count as inside.
  bool Contains(const Point& p) const;

  /// Ear-clipping triangulation (O(n^2)); requires a simple CCW ring.
  /// Degenerate (zero-area) ears are skipped.
  std::vector<ConvexPolygon> Triangulate() const;

 private:
  std::vector<Point> vertices_;
};

/// A planar region represented as a union of convex pieces.
///
/// Intersecting two regions is the pairwise intersection of their pieces;
/// since convex∩convex is convex, the representation is closed under the
/// only operation the MOVD overlap needs. Ordinary Voronoi cells enter as a
/// single piece; weighted cells enter as the interior-disjoint rectangles
/// of their lattice covers (RectilinearSlabs); FromPolygon triangulates a
/// general simple polygon.
class Region {
 public:
  Region() = default;

  static Region FromConvex(ConvexPolygon piece);
  static Region FromPolygon(const Polygon& polygon);
  static Region FromRect(const Rect& r);

  /// Wraps pre-validated pieces (deserialization); empty pieces dropped.
  static Region FromPieces(std::vector<ConvexPolygon> pieces);

  /// Pairwise piece intersection; slivers below `min_area` are dropped.
  /// Each piece pair goes through the ConvexPolygon::Intersect kernel, so
  /// the only allocations are the result and its surviving pieces.
  static Region Intersect(const Region& a, const Region& b,
                          double min_area = kDefaultMinPieceArea);

  bool Empty() const { return pieces_.empty(); }
  const std::vector<ConvexPolygon>& pieces() const { return pieces_; }

  /// Total area (pieces are interior-disjoint by construction).
  double Area() const;

  /// MBR over all pieces.
  Rect Bbox() const;

  /// Total stored vertex count; proxy for the paper's memory metric.
  size_t VertexCount() const;

  /// True when any piece contains `p`.
  bool Contains(const Point& p) const;

  /// Area threshold below which an intersection piece is considered a
  /// boundary-only sliver and discarded.
  static constexpr double kDefaultMinPieceArea = 1e-9;

 private:
  std::vector<ConvexPolygon> pieces_;
};

}  // namespace movd

#endif  // MOVD_GEOM_POLYGON_H_
