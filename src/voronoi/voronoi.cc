#include "voronoi/voronoi.h"

#include <algorithm>
#include <limits>

#include "geom/predicates.h"
#include "trace/trace.h"
#include "util/check.h"
#include "voronoi/delaunay.h"

namespace movd {

VoronoiDiagram VoronoiDiagram::Build(const std::vector<Point>& sites,
                                     const Rect& bounds) {
  VoronoiDiagram vd = Triangulate(sites, bounds);
  vd.ClipCells();
  return vd;
}

VoronoiDiagram VoronoiDiagram::Triangulate(const std::vector<Point>& sites,
                                           const Rect& bounds) {
  VoronoiDiagram vd;
  vd.bounds_ = bounds;
  {
    TraceSpan span("sort_sites");
    // Sorting (point, input index) puts each run of equal points in input
    // order, so the run's first entry names its lowest input index.
    struct Keyed {
      Point p;
      int32_t input;
    };
    std::vector<Keyed> keyed(sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
      keyed[i] = {sites[i], static_cast<int32_t>(i)};
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
      return LessXY(a.p, b.p) || (a.p == b.p && a.input < b.input);
    });
    vd.sites_.reserve(keyed.size());
    vd.first_input_.reserve(keyed.size());
    for (const Keyed& k : keyed) {
      if (!vd.sites_.empty() && vd.sites_.back() == k.p) continue;
      vd.sites_.push_back(k.p);
      vd.first_input_.push_back(k.input);
    }
  }
  vd.cells_.resize(vd.sites_.size());
  for (size_t i = 0; i < vd.cells_.size(); ++i) {
    vd.cells_[i].site = static_cast<int32_t>(i);
  }
  if (vd.sites_.empty()) return vd;

  // A site's Voronoi cell is bounded exactly by the bisectors against its
  // Delaunay neighbours. The triangulation keeps the sites' (sorted,
  // distinct) order, so its vertex i is site i, and each ascending table
  // row is the canonical (LessXY) clip order.
  TraceSpan span("delaunay");
  span.Counter("sites", static_cast<int64_t>(vd.sites_.size()));
  const Delaunay dt(vd.sites_);
  MOVD_CHECK(dt.num_real_points() == vd.sites_.size());
  vd.neighbors_ = dt.Adjacency();
  return vd;
}

void VoronoiDiagram::ClipCells(std::span<const uint8_t> keep) {
  MOVD_CHECK(keep.empty() || keep.size() == sites_.size());
  if (sites_.empty()) return;
  TraceSpan span("voronoi_cells");
  size_t clip_steps = 0;
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (!keep.empty() && keep[i] == 0) continue;
    const auto site = static_cast<int32_t>(i);
    cells_[i].region = CanonicalVoronoiCell(sites_, site, neighbors_.of(site),
                                            bounds_, &clip_steps);
  }
  span.Counter("clip_steps", static_cast<int64_t>(clip_steps));
}

ConvexPolygon CanonicalVoronoiCell(std::span<const Point> points,
                                   int32_t site,
                                   std::span<const int32_t> neighbors,
                                   const Rect& bounds, size_t* clip_steps) {
  // FromRect(bounds) is empty exactly when the rectangle is, or when two
  // of its corners coincide; otherwise its ring is these four corners.
  if (bounds.Empty() || bounds.min_x == bounds.max_x ||
      bounds.min_y == bounds.max_y) {
    return ConvexPolygon();
  }
  const Point corners[4] = {{bounds.min_x, bounds.min_y},
                            {bounds.max_x, bounds.min_y},
                            {bounds.max_x, bounds.max_y},
                            {bounds.min_x, bounds.max_y}};
  // The steps alternate between two scratch rings, so nothing is allocated
  // once they have grown.
  thread_local std::vector<Point> rings[2];
  std::span<const Point> cell = corners;
  const Point& p = points[site];
  for (size_t k = 0; k < neighbors.size(); ++k) {
    // The half-plane of points at least as close to p as to q: left of the
    // perpendicular bisector, directed with p on its left.
    const Point& q = points[neighbors[k]];
    const Point mid = (p + q) * 0.5;
    const Point dir{-(q.y - p.y), q.x - p.x};
    std::vector<Point>& next = rings[k % 2];
    ClipRing(cell, mid, mid + dir, &next);
    if (clip_steps != nullptr) ++*clip_steps;
    if (next.empty()) return ConvexPolygon();
    cell = next;
  }
  return ConvexPolygon::FromTrustedRing(
      std::vector<Point>(cell.begin(), cell.end()));
}

int32_t VoronoiDiagram::NearestSiteBrute(const Point& p) const {
  MOVD_CHECK(!sites_.empty());
  int32_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < sites_.size(); ++i) {
    const double d2 = Distance2(p, sites_[i]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int32_t>(i);
    }
  }
  return best;
}

}  // namespace movd
