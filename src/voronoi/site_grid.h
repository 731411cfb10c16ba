#ifndef MOVD_VORONOI_SITE_GRID_H_
#define MOVD_VORONOI_SITE_GRID_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "voronoi/voronoi.h"

namespace movd {

/// The distinct sites of one point set, bucketed on a uniform grid of
/// square buckets by one counting pass (about one site per bucket).
///
/// SolveMolq's object filter (core/pruned_overlap.h) asks each grid for
/// exact nearest sites, and ClipKeptCells triangulates only the buckets
/// around the sites the filter keeps. Neither needs the full Delaunay
/// triangulation that VoronoiDiagram::Build computes.
///
/// A site's bucket is floor((x - x0) / w) per axis, evaluated in doubles.
/// That function is monotone in the coordinate, so every point whose
/// coordinate lies between two others falls into a bucket between theirs;
/// the ring search and the certificate below lean on that, never on the
/// bucket edges being exact.
class SiteGrid {
 public:
  /// Buckets `points`; exact duplicates collapse into one site.
  explicit SiteGrid(std::span<const Point> points);

  /// The distinct sites, bucket by bucket (row-major), in LessXY order
  /// within a bucket.
  const std::vector<Point>& sites() const { return sites_; }

  /// first_input()[i] is the lowest index in the constructor's input of a
  /// point equal to sites()[i].
  const std::vector<int32_t>& first_input() const { return first_input_; }

  int32_t columns() const { return columns_; }
  int32_t rows() const { return rows_; }
  size_t buckets() const { return offsets_.size() - 1; }

  /// The sites of bucket (column, row): indices [begin, end) of sites().
  int32_t BucketBegin(int32_t column, int32_t row) const {
    return offsets_[static_cast<size_t>(row) * columns_ + column];
  }
  int32_t BucketEnd(int32_t column, int32_t row) const {
    return offsets_[static_cast<size_t>(row) * columns_ + column + 1];
  }

  /// The column (row) of a coordinate, clamped to the grid. Monotone.
  int32_t ColumnOf(double x) const;
  int32_t RowOf(double y) const;

  /// Calls visit(column, row) for every bucket of the grid at Chebyshev
  /// distance exactly `ring` from bucket (column, row); rings past
  /// LastRing(column, row) hold none.
  template <typename Visit>
  void ForEachBucketInRing(int32_t column, int32_t row, int32_t ring,
                           Visit&& visit) const {
    const int32_t c0 = std::max(column - ring, 0);
    const int32_t c1 = std::min(column + ring, columns_ - 1);
    if (row - ring >= 0) {
      for (int32_t c = c0; c <= c1; ++c) visit(c, row - ring);
    }
    if (ring == 0) return;
    if (row + ring < rows_) {
      for (int32_t c = c0; c <= c1; ++c) visit(c, row + ring);
    }
    const int32_t r1 = std::min(row + ring - 1, rows_ - 1);
    for (int32_t r = std::max(row - ring + 1, 0); r <= r1; ++r) {
      if (column - ring >= 0) visit(column - ring, r);
      if (column + ring < columns_) visit(column + ring, r);
    }
  }
  int32_t LastRing(int32_t column, int32_t row) const {
    return std::max({column, columns_ - 1 - column, row, rows_ - 1 - row});
  }

  /// Bucket (column, row) of every site, in site order.
  int32_t ColumnOfSite(int32_t site) const { return site_column_[site]; }
  int32_t RowOfSite(int32_t site) const { return site_row_[site]; }

  /// The exact nearest site to `q` (CompareDistance), ties to the
  /// LessXY-least site: the lowest index of VoronoiDiagram's sorted
  /// sites. A ring search: rings of buckets around q's bucket, each
  /// bucket skipped when a conservative lower bound on its distance
  /// exceeds the best distance found, until a whole ring is out of reach.
  /// Returns -1 when a coordinate of `q` or of a site is outside
  /// ExactDistanceRange, or when the grid is empty. With a finite `reach`
  /// it gives up and returns kBeyondReach once every site is provably
  /// farther from q than reach (the bounds clear reach^2 by a factor
  /// 1 + 2^-30). Adds the sites it compared to `*scanned` when that is not
  /// null.
  static constexpr int32_t kBeyondReach = -2;
  int32_t Nearest(const Point& q, size_t* scanned = nullptr,
                  double reach = std::numeric_limits<double>::infinity())
      const;

 private:
  // A coordinate in bucket units, unclamped.
  double ColumnUnits(double x) const { return (x - origin_.x) * inverse_; }
  double RowUnits(double y) const { return (y - origin_.y) * inverse_; }

  std::vector<Point> sites_;
  std::vector<int32_t> first_input_;
  std::vector<int32_t> site_column_;
  std::vector<int32_t> site_row_;
  std::vector<int32_t> offsets_;  // buckets() + 1 entries, from 0
  Point origin_;
  double width_ = 1.0;    // bucket side
  double inverse_ = 1.0;  // 1 / width_, rounded
  int32_t columns_ = 1;
  int32_t rows_ = 1;
  bool exact_ = false;  // every site inside ExactDistanceRange
};

/// What ClipKeptCells did: the sites of the triangulation the kept cells
/// were read from (the last local one, or every site on a fallback), the
/// halo rings of that local triangulation, and whether it fell back to
/// the full triangulation (0 or 1).
struct KeptCellsStats {
  size_t sites = 0;
  size_t halo_rings = 0;
  size_t full_fallbacks = 0;
};

/// One cell per site of `grid` (VoronoiCell::site indexes grid.sites()):
/// the cells of the sites with keep[i] != 0 clipped to `bounds`, the others
/// empty. Each kept cell is bit-equal to the same site's cell in
/// VoronoiDiagram::Build(grid.sites(), bounds).
///
/// Only the kept sites' buckets and a halo of one ring of buckets around
/// each are triangulated (one Delaunay). Each kept site's star is then
/// certified:
///  - every incident triangle with three real vertices must have a
///    circumdisk (grown by a margin that covers the circumcentre's
///    rounding) within 2^17 sides of the sites' bounding box, so no
///    super-quad vertex of the full triangulation is inside, and every
///    grid site in the buckets that meet the disk must be a corner or
///    strictly outside the circle (exact InCircle). The bucket function is
///    monotone, so those buckets hold every site inside the closed disk:
///    the circle is empty of all other points, and the triangle is a face
///    of every Delaunay triangulation of the full set;
///  - a star with a synthetic vertex (its site is on the local hull) must
///    have its real triangles fan from one neighbour to another, and no
///    site of the full set may lie strictly outside that wedge. The site is
///    then on the full hull and the rest of its full star has no real
///    vertex.
/// A certified star's real neighbours are therefore the full
/// triangulation's, its LessXY-sorted row is the full neighbour table's
/// row, and CanonicalVoronoiCell returns the full diagram's cell.
///
/// After a pass with failing stars, the sites of the bucket of each site
/// that failed one are inserted into the same triangulation, and so are
/// those of one more ring of halo around the kept bucket next to it (at
/// most 16 rings); certified stars stay certified. After 16 passes, when a
/// pass would add nothing, on a site exactly on a circle, on an ill-conditioned or too
/// large circle, on a star with no real triangle (a row of sites), when a
/// site is outside ExactDistanceRange or when every site is kept, the set
/// falls back to VoronoiDiagram::Triangulate + ClipCells(keep) over every
/// site ("sort_sites" and "delaunay" spans), and stats->full_fallbacks is
/// 1.
/// The triangulation and its certificate run under a "local_delaunay"
/// span (counters `sites`, `halo_rings`, `full_fallbacks`), the clipping
/// under "voronoi_cells" (counter `clip_steps`).
std::vector<VoronoiCell> ClipKeptCells(const SiteGrid& grid,
                                       std::span<const uint8_t> keep,
                                       const Rect& bounds,
                                       KeptCellsStats* stats);

}  // namespace movd

#endif  // MOVD_VORONOI_SITE_GRID_H_
