#ifndef MOVD_VORONOI_VORONOI_H_
#define MOVD_VORONOI_VORONOI_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/rect.h"

namespace movd {

/// One cell of an ordinary Voronoi diagram, clipped to the search space.
struct VoronoiCell {
  int32_t site = -1;     ///< index into VoronoiDiagram::sites()
  ConvexPolygon region;  ///< closed convex polygon; empty if the site's
                         ///< dominance region misses the bounds entirely
};

/// An ordinary (unweighted) Voronoi diagram clipped to a rectangle.
///
/// The sites are triangulated first (Delaunay, exact predicates); each cell
/// is then the bounds clipped by the bisectors against the site's Delaunay
/// neighbours in LessXY order (CanonicalVoronoiCell). A site's cell is
/// therefore a pure function of (site, neighbour set, bounds), which is what
/// lets the live-update path (core/update.h) keep the same Delaunay class
/// current under Insert/Remove and re-clip only the cells whose neighbour
/// sets changed. Tests check the cells against NearestSiteBrute and
/// AuditVoronoi.
///
/// Build reads every neighbour list from one flat table
/// (Delaunay::Adjacency) and clips every cell on two thread-local scratch
/// rings, so a cell costs one allocation: its own ring, which
/// MovdFromVoronoi later moves into its OVR.
class VoronoiDiagram {
 public:
  /// Builds the diagram of `sites` (exact duplicates collapsed) clipped to
  /// `bounds`. Average cost O(n log n). Records "delaunay" and
  /// "voronoi_cells" trace spans.
  static VoronoiDiagram Build(const std::vector<Point>& sites,
                              const Rect& bounds);

  /// Deduplicated generator points in LessXY order; cells()[i].site
  /// indexes this vector.
  const std::vector<Point>& sites() const { return sites_; }

  /// first_input()[i] is the lowest index in Build's input of a point
  /// equal to sites()[i].
  const std::vector<int32_t>& first_input() const { return first_input_; }

  /// One cell per site, in site order.
  const std::vector<VoronoiCell>& cells() const { return cells_; }

  /// Moves the cells out, leaving the diagram without cells.
  std::vector<VoronoiCell> TakeCells() && { return std::move(cells_); }

  const Rect& bounds() const { return bounds_; }

  /// Index of the nearest site to `p` by linear scan (ties to the lowest
  /// index). O(n); intended for tests and small inputs.
  int32_t NearestSiteBrute(const Point& p) const;

 private:
  std::vector<Point> sites_;
  std::vector<int32_t> first_input_;
  std::vector<VoronoiCell> cells_;
  Rect bounds_;
};

/// The canonical clipped Voronoi cell of points[site]: the bounds
/// rectangle cut by the perpendicular bisector against each
/// points[neighbors[k]], in the order given. With `neighbors` = the site's
/// Delaunay neighbours in LessXY order of their points this is exactly the
/// cell VoronoiDiagram::Build produces; the live-update mirror
/// (core/update.h) relies on that byte identity, so every caller that
/// wants reproducible cells must pass the neighbours in LessXY order.
///
/// Each bisector is one ClipRing step on a thread-local scratch ring, and
/// the steps stop once the ring is empty; the result is bit-equal to
/// ConvexPolygon::FromRect(bounds) cut by ClipByHalfPlane per neighbour.
/// The only allocation is the returned ring. Adds the steps run to
/// `*clip_steps` when it is not null.
ConvexPolygon CanonicalVoronoiCell(std::span<const Point> points,
                                   int32_t site,
                                   std::span<const int32_t> neighbors,
                                   const Rect& bounds,
                                   size_t* clip_steps = nullptr);

}  // namespace movd

#endif  // MOVD_VORONOI_VORONOI_H_
