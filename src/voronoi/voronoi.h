#ifndef MOVD_VORONOI_VORONOI_H_
#define MOVD_VORONOI_VORONOI_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/rect.h"
#include "voronoi/delaunay.h"

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
/// Build runs in two steps a caller may also run apart: Triangulate
/// (sort and deduplicate the sites, Delaunay, one flat neighbour table
/// from Delaunay::Adjacency) and ClipCells, which clips the cells on two
/// thread-local scratch rings, so a cell costs one allocation: its own
/// ring, which MovdFromVoronoi later moves into its OVR. Between the two,
/// SolveMolq's object filter (core/pruned_overlap.h) reads the sites and
/// the table to decide which cells are worth clipping at all.
class VoronoiDiagram {
 public:
  /// Builds the diagram of `sites` (exact duplicates collapsed) clipped to
  /// `bounds`: Triangulate, then ClipCells for every site. Average cost
  /// O(n log n). Records "sort_sites", "delaunay" and "voronoi_cells"
  /// trace spans.
  static VoronoiDiagram Build(const std::vector<Point>& sites,
                              const Rect& bounds);

  /// Build's first step: the deduplicated sites, first_input(),
  /// hilbert_order() and the Delaunay neighbour table, with one empty cell
  /// per site ("sort_sites" and "delaunay" spans).
  static VoronoiDiagram Triangulate(const std::vector<Point>& sites,
                                    const Rect& bounds);

  /// Build's second step: clips the cell of every site i with keep[i] != 0,
  /// or of every site when `keep` is empty ("voronoi_cells" span, counter
  /// `clip_steps`). The other cells stay empty. A clipped cell is bit-equal
  /// to its cell in the full diagram, because it depends only on the site,
  /// its Delaunay neighbours and the bounds.
  void ClipCells(std::span<const uint8_t> keep = {});

  /// Deduplicated generator points in LessXY order; cells()[i].site
  /// indexes this vector.
  const std::vector<Point>& sites() const { return sites_; }

  /// first_input()[i] is the lowest index in Build's input of a point
  /// equal to sites()[i].
  const std::vector<int32_t>& first_input() const { return first_input_; }

  /// The site indices in Hilbert order: the triangulation's insertion
  /// order (Delaunay::insertion_order). Consecutive sites are close.
  const std::vector<int32_t>& hilbert_order() const { return hilbert_order_; }

  /// One cell per site, in site order.
  const std::vector<VoronoiCell>& cells() const { return cells_; }

  /// Moves the cells out, leaving the diagram without cells.
  std::vector<VoronoiCell> TakeCells() && { return std::move(cells_); }

  const Rect& bounds() const { return bounds_; }

  /// Index of the nearest site to `p` by linear scan (ties to the lowest
  /// index). O(n); intended for tests and small inputs.
  int32_t NearestSiteBrute(const Point& p) const;

  /// A nearest site to `q` by a greedy walk over the Delaunay neighbour
  /// table from site `start`: each move goes to the neighbour closest to
  /// q, first in row order on exact ties, while one is strictly closer
  /// than the current site (CompareDistance). Adds the moves to `*steps`
  /// when it is not null.
  ///
  /// The walk stops at a site c with no real Delaunay neighbour strictly
  /// closer to q. The triangulation also holds Delaunay's super-quad; when
  /// every quad vertex is farther from q than c, no neighbour of c is
  /// closer, so q lies in c's Voronoi cell of the sites plus the quad and
  /// c is a nearest site. That holds for every q within the sites'
  /// bounding box grown by 1024 times its larger side on each side (the
  /// quad is at least 10^6 sides away). Returns -1 for a q outside that
  /// box, and for any q when a coordinate of q or of a site is outside
  /// ExactDistanceRange; a single site is nearest to every q in range.
  int32_t NearestSite(const Point& q, int32_t start,
                      size_t* steps = nullptr) const;

 private:
  std::vector<Point> sites_;
  std::vector<int32_t> first_input_;
  std::vector<VoronoiCell> cells_;
  // Each site's Delaunay neighbours, ascending (LessXY order of their
  // points): the canonical clip order.
  NeighborTable neighbors_;
  std::vector<int32_t> hilbert_order_;
  Rect bounds_;
  // Where NearestSite is exact: the sites' bounding box grown by 1024 times
  // its larger side, or empty when a site is outside ExactDistanceRange.
  Rect walk_cover_;
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
