#include "voronoi/site_grid.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>

#include "geom/predicates.h"
#include "trace/trace.h"
#include "util/check.h"
#include "voronoi/delaunay.h"

namespace movd {

namespace {

// A kept bucket's halo grows to at most this many rings, and ClipKeptCells
// gives up on the local triangulation after this many certifying passes.
constexpr int32_t kMaxHaloRings = 16;
constexpr int32_t kMaxPasses = 16;

// The box around the closed circumdisk of (a, b, c), grown so that it
// holds the exact disk despite the rounding of the circumcentre and the
// radius. False when the triangle is too close to degenerate for that
// bound (collinear, or an angle so flat that the centre is ill-defined).
//
// The centre is solved relative to a, on edge vectors scaled by a power of
// two to unit size (exact), so the working values are O(1). With
// condition number k = (|bx cy| + |by cx|) / |bx cy - by cx| <= 2^20 the
// solve's relative error is a few units of 2^-53 times k, and the margin
// below allows 2^-30 (1 + k) of every magnitude involved.
bool CircumdiskBox(const Point& a, const Point& b, const Point& c, Rect* box) {
  const double bx0 = b.x - a.x;
  const double by0 = b.y - a.y;
  const double cx0 = c.x - a.x;
  const double cy0 = c.y - a.y;
  const double largest =
      std::max({std::fabs(bx0), std::fabs(by0), std::fabs(cx0),
                std::fabs(cy0)});
  if (!(largest > 0.0) || !std::isfinite(largest)) return false;
  const int e = -std::ilogb(largest);
  const double bx = std::ldexp(bx0, e);
  const double by = std::ldexp(by0, e);
  const double cx = std::ldexp(cx0, e);
  const double cy = std::ldexp(cy0, e);
  const double cross = bx * cy - by * cx;
  const double magnitude = std::fabs(bx * cy) + std::fabs(by * cx);
  if (!(std::fabs(cross) * 0x1p20 >= magnitude)) return false;
  const double b2 = bx * bx + by * by;
  const double c2 = cx * cx + cy * cy;
  const double d = 2.0 * cross;
  const double ux = (cy * b2 - by * c2) / d;
  const double uy = (bx * c2 - cx * b2) / d;
  const double k = magnitude / std::fabs(cross);
  const double margin = 0x1p-30 * (1.0 + k) *
                        (std::fabs(ux) + std::fabs(uy) + 64.0 / std::fabs(d) +
                         2.0);
  const double r = std::sqrt(ux * ux + uy * uy) + margin;
  const double cu_x = std::ldexp(ux, -e);
  const double cu_y = std::ldexp(uy, -e);
  const double radius = std::ldexp(r, -e);
  const double centre_x = a.x + cu_x;
  const double centre_y = a.y + cu_y;
  // The last additions round by at most an ulp of their largest operand.
  const double slack_x =
      0x1p-50 * (std::fabs(a.x) + std::fabs(cu_x) + radius);
  const double slack_y =
      0x1p-50 * (std::fabs(a.y) + std::fabs(cu_y) + radius);
  *box = Rect(centre_x - radius - slack_x, centre_y - radius - slack_y,
              centre_x + radius + slack_x, centre_y + radius + slack_y);
  return std::isfinite(box->min_x) && std::isfinite(box->min_y) &&
         std::isfinite(box->max_x) && std::isfinite(box->max_y);
}

enum class Verdict { kCertified, kGrow, kDegenerate };

}  // namespace

SiteGrid::SiteGrid(std::span<const Point> points) {
  offsets_.assign(2, 0);
  if (points.empty()) return;
  Rect box;
  for (const Point& p : points) box.Expand(p);
  exact_ = ExactDistanceRange(points);
  if (exact_) {
    origin_ = {box.min_x, box.min_y};
    // About one site per bucket, but never more than n + 1 buckets along
    // a side, so a thin box (a row of sites) stays O(n).
    const double side = std::max(box.Width(), box.Height());
    if (side > 0.0) {
      const auto n = static_cast<double>(points.size());
      width_ = std::max(std::sqrt(box.Width() * box.Height() / n), side / n);
      inverse_ = 1.0 / width_;
      // Every site maps below these counts, by monotonicity.
      columns_ = static_cast<int32_t>(ColumnUnits(box.max_x)) + 1;
      rows_ = static_cast<int32_t>(RowUnits(box.max_y)) + 1;
    }
  }
  // One counting pass into buckets, input order within a bucket.
  const size_t num_buckets = static_cast<size_t>(columns_) * rows_;
  std::vector<int32_t> bucket_of(points.size());
  std::vector<int32_t> start(num_buckets + 1, 0);
  for (size_t i = 0; i < points.size(); ++i) {
    bucket_of[i] = RowOf(points[i].y) * columns_ + ColumnOf(points[i].x);
    ++start[static_cast<size_t>(bucket_of[i]) + 1];
  }
  for (size_t b = 0; b < num_buckets; ++b) start[b + 1] += start[b];
  std::vector<int32_t> order(points.size());
  {
    std::vector<int32_t> next(start.begin(), start.end() - 1);
    for (size_t i = 0; i < points.size(); ++i) {
      order[next[bucket_of[i]]++] = static_cast<int32_t>(i);
    }
  }
  // Within a bucket: LessXY, equal points by input index; keep the first
  // of each run of equal points.
  sites_.reserve(points.size());
  first_input_.reserve(points.size());
  site_column_.reserve(points.size());
  site_row_.reserve(points.size());
  offsets_.assign(1, 0);
  offsets_.reserve(num_buckets + 1);
  for (size_t b = 0; b < num_buckets; ++b) {
    const auto begin = order.begin() + start[b];
    const auto end = order.begin() + start[b + 1];
    std::sort(begin, end, [&](int32_t i, int32_t j) {
      return LessXY(points[i], points[j]) ||
             (points[i] == points[j] && i < j);
    });
    for (auto it = begin; it != end; ++it) {
      if (it != begin && points[*it] == points[*(it - 1)]) continue;
      sites_.push_back(points[*it]);
      first_input_.push_back(*it);
      site_column_.push_back(static_cast<int32_t>(b % columns_));
      site_row_.push_back(static_cast<int32_t>(b / columns_));
    }
    offsets_.push_back(static_cast<int32_t>(sites_.size()));
  }
}

int32_t SiteGrid::ColumnOf(double x) const {
  const double t = ColumnUnits(x);
  if (!(t >= 0.0)) return 0;
  if (t >= columns_ - 1) return columns_ - 1;
  return static_cast<int32_t>(t);
}

int32_t SiteGrid::RowOf(double y) const {
  const double t = RowUnits(y);
  if (!(t >= 0.0)) return 0;
  if (t >= rows_ - 1) return rows_ - 1;
  return static_cast<int32_t>(t);
}

int32_t SiteGrid::Nearest(const Point& q, size_t* scanned,
                          double reach) const {
  if (sites_.empty() || !exact_ || !ExactDistanceRange(std::span(&q, 1))) {
    return -1;
  }
  // Every site of bucket column b has a computed column coordinate in
  // [b, b + 1), and the computed coordinates are within 3 units of 2^-53
  // (relative) of the exact ones. So the exact gap between q and any site
  // of column b is at least the computed gap, less `slack` buckets.
  const double tx = ColumnUnits(q.x);
  const double ty = RowUnits(q.y);
  const double slack =
      0x1p-40 * (std::fabs(tx) + std::fabs(ty) + columns_ + rows_);
  const auto gap = [&](double t, int32_t b) {
    const double g = t < b ? b - t : t - (b + 1);
    return std::max(0.0, g - slack) * width_;
  };
  int32_t best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  // A lower bound above best_d2 by this factor puts every site it covers
  // strictly farther than the best, whatever the rounding of either.
  const auto out_of_reach = [&](double gx, double gy) {
    return best >= 0 && gx * gx + gy * gy > best_d2 * (1.0 + 0x1p-30);
  };
  size_t compared = 0;
  const auto visit = [&](int32_t column, int32_t row) {
    if (out_of_reach(gap(tx, column), gap(ty, row))) return;
    const int32_t end = BucketEnd(column, row);
    for (int32_t k = BucketBegin(column, row); k < end; ++k) {
      ++compared;
      // A computed squared distance is within 2^-51 (relative) of the
      // exact one, so a gap of 2^-48 decides; closer calls go to the
      // exact predicate.
      const double d2 = Distance2(q, sites_[k]);
      if (best >= 0) {
        if (d2 > best_d2 * (1.0 + 0x1p-48)) continue;
        if (!(d2 < best_d2 * (1.0 - 0x1p-48))) {
          const double c = CompareDistance(q, sites_[k], sites_[best]);
          if (c > 0.0 || (c == 0.0 && !LessXY(sites_[k], sites_[best]))) {
            continue;
          }
        }
      }
      best = k;
      best_d2 = d2;
    }
  };
  // Lower bounds above reach2 put every site they cover beyond reach.
  const double reach2 = reach * reach * (1.0 + 0x1p-30);
  const int32_t cx = ColumnOf(q.x);
  const int32_t cy = RowOf(q.y);
  for (int32_t r = 0; r <= LastRing(cx, cy); ++r) {
    if (r > 0) {
      // The ring's nearest side: farther rings only move away from q.
      double near2 = std::numeric_limits<double>::infinity();
      const auto side = [&](double gx, double gy) {
        near2 = std::min(near2, gx * gx + gy * gy);
      };
      if (cx - r >= 0) side(gap(tx, cx - r), gap(ty, cy));
      if (cx + r < columns_) side(gap(tx, cx + r), gap(ty, cy));
      if (cy - r >= 0) side(gap(tx, cx), gap(ty, cy - r));
      if (cy + r < rows_) side(gap(tx, cx), gap(ty, cy + r));
      if (best >= 0 && near2 > best_d2 * (1.0 + 0x1p-30)) break;
      if (near2 > reach2 && (best < 0 || best_d2 > reach2)) {
        best = kBeyondReach;
        break;
      }
    }
    ForEachBucketInRing(cx, cy, r, visit);
  }
  if (scanned != nullptr) *scanned += compared;
  return best;
}

namespace {

// The local triangulation whose kept stars passed the certificate: its
// vertex coordinates, each kept site's vertex and LessXY-sorted real
// neighbours, how many sites it holds and the widest halo it needed.
struct LocalStars {
  std::vector<Point> points;
  std::vector<int32_t> vertex;             // per kept site
  std::vector<std::vector<int32_t>> rows;  // per kept site
  size_t sites = 0;
  int32_t rings = 0;
};

// Triangulates the kept sites' buckets with a halo of one ring each, then
// certifies every kept star (ClipKeptCells' header). After a pass with
// failing stars, the bucket of each site that failed one is inserted, and
// the halo of the kept bucket next to it grows by one ring; a certified
// star stays certified, since its triangles are faces of the full
// triangulation. False when the set must fall back instead.
bool CertifyKeptStars(const SiteGrid& grid, std::span<const uint8_t> keep,
                      std::span<const int32_t> kept, LocalStars* out) {
  const std::vector<Point>& sites = grid.sites();
  const int32_t columns = grid.columns();
  const auto bucket_of = [&](int32_t k) {
    return grid.RowOfSite(k) * columns + grid.ColumnOfSite(k);
  };
  // The kept buckets, each with its halo.
  std::vector<int32_t> kept_buckets;
  kept_buckets.reserve(kept.size());
  for (const int32_t k : kept) kept_buckets.push_back(bucket_of(k));
  std::sort(kept_buckets.begin(), kept_buckets.end());
  kept_buckets.erase(std::unique(kept_buckets.begin(), kept_buckets.end()),
                     kept_buckets.end());
  std::vector<int32_t> rings(kept_buckets.size(), 1);
  // Where a certified circumdisk must lie: the sites' bounding box grown
  // by 2^17 times its larger side. The full triangulation's super-quad
  // vertices are 10^6 sides away from its centre.
  Rect box;
  for (const Point& p : sites) box.Expand(p);
  const double grow_by = 0x1p17 * std::max(box.Width(), box.Height());
  const Rect far(box.min_x - grow_by, box.min_y - grow_by,
                 box.max_x + grow_by, box.max_y + grow_by);

  // The sites of every bucket not yet triangulated within `ring` of
  // bucket b, appended to `fresh`.
  std::vector<uint8_t> included(grid.buckets(), 0);
  std::vector<int32_t> fresh;
  const auto include = [&](int32_t b, int32_t ring) {
    const int32_t column = b % columns;
    const int32_t row = b / columns;
    for (int32_t y = std::max(row - ring, 0);
         y <= std::min(row + ring, grid.rows() - 1); ++y) {
      for (int32_t x = std::max(column - ring, 0);
           x <= std::min(column + ring, columns - 1); ++x) {
        uint8_t& mark = included[static_cast<size_t>(y) * columns + x];
        if (mark != 0) continue;
        mark = 1;
        for (int32_t k = grid.BucketBegin(x, y); k < grid.BucketEnd(x, y);
             ++k) {
          fresh.push_back(k);
        }
      }
    }
  };
  for (const int32_t b : kept_buckets) include(b, 1);
  std::sort(fresh.begin(), fresh.end(), [&](int32_t i, int32_t j) {
    return LessXY(sites[i], sites[j]);
  });
  // The world rectangle lets later passes insert any site of the grid.
  std::vector<Point> first;
  first.reserve(fresh.size());
  for (const int32_t k : fresh) first.push_back(sites[k]);
  Delaunay dt(first, box);
  MOVD_CHECK(dt.num_real_points() == first.size());
  // vertex_of[k]: the vertex of grid site k, or -1; site_of inverts it.
  std::vector<int32_t> vertex_of(sites.size(), -1);
  std::vector<int32_t> site_of(dt.points().size(), -1);
  for (size_t v = 0; v < fresh.size(); ++v) {
    vertex_of[fresh[v]] = static_cast<int32_t>(v);
    site_of[v] = fresh[v];
  }
  size_t triangulated = fresh.size();
  const auto is_kept = [&](int32_t v) {
    return !dt.IsSynthetic(v) && keep[site_of[v]] != 0;
  };
  std::vector<uint8_t> certified(dt.points().size(), 0);
  std::vector<int32_t> failed;
  std::vector<int32_t> wanted;
  for (int32_t pass = 1; pass <= kMaxPasses; ++pass) {
    const std::vector<Point>& points = dt.points();
    out->rings = *std::max_element(rings.begin(), rings.end());
    wanted = rings;
    failed.clear();
    // Site k failed a star of `t`: its bucket joins, and the nearest kept
    // corner's bucket asks for one ring more.
    const auto take_in = [&](const Delaunay::Triangle& t, int32_t k) {
      int32_t best = std::numeric_limits<int32_t>::max();
      size_t index = 0;
      for (const int32_t u : t.v) {
        if (!is_kept(u)) continue;
        const int32_t d = std::max(
            std::abs(grid.ColumnOfSite(k) - grid.ColumnOfSite(site_of[u])),
            std::abs(grid.RowOfSite(k) - grid.RowOfSite(site_of[u])));
        if (d < best) {
          best = d;
          index = static_cast<size_t>(
              std::lower_bound(kept_buckets.begin(), kept_buckets.end(),
                               bucket_of(site_of[u])) -
              kept_buckets.begin());
        }
      }
      wanted[index] = std::min(rings[index] + 1, kMaxHaloRings);
      failed.push_back(bucket_of(k));
    };
    // The verdict on one real triangle of a kept star.
    const auto certify = [&](const Delaunay::Triangle& t) {
      const Point& a = points[t.v[0]];
      const Point& b = points[t.v[1]];
      const Point& c = points[t.v[2]];
      const double orient = Orient2D(a, b, c);
      Rect disk;
      // A disk this large could hold a super-quad vertex of the full
      // triangulation.
      if (orient == 0.0 || !CircumdiskBox(a, b, c, &disk) ||
          !far.Contains(disk)) {
        return Verdict::kDegenerate;
      }
      // Every site inside the closed disk lies in these buckets; each must
      // be a corner or strictly outside the circle.
      const int32_t x0 = grid.ColumnOf(disk.min_x);
      const int32_t x1 = grid.ColumnOf(disk.max_x);
      const int32_t y0 = grid.RowOf(disk.min_y);
      const int32_t y1 = grid.RowOf(disk.max_y);
      for (int32_t y = y0; y <= y1; ++y) {
        for (int32_t x = x0; x <= x1; ++x) {
          for (int32_t k = grid.BucketBegin(x, y); k < grid.BucketEnd(x, y);
               ++k) {
            const int32_t v = vertex_of[k];
            if (v == t.v[0] || v == t.v[1] || v == t.v[2]) continue;
            const double in = orient > 0.0 ? InCircle(a, b, c, sites[k])
                                            : InCircle(a, c, b, sites[k]);
            if (in < 0.0) continue;
            // On the circle; or inside it although triangulated, which
            // exact predicates rule out.
            if (in == 0.0 || v >= 0) return Verdict::kDegenerate;
            // An untriangulated site inside: the halo must reach it.
            take_in(t, k);
            return Verdict::kGrow;
          }
        }
      }
      return Verdict::kCertified;
    };
    // The stars not yet certified, each as its triangles.
    const std::vector<Delaunay::Triangle> triangles = dt.Triangles();
    std::vector<std::pair<int32_t, int32_t>> open;  // (vertex, triangle)
    for (size_t t = 0; t < triangles.size(); ++t) {
      for (const int32_t v : triangles[t].v) {
        if (is_kept(v) && certified[v] == 0) {
          open.push_back({v, static_cast<int32_t>(t)});
        }
      }
    }
    std::sort(open.begin(), open.end());
    for (size_t begin = 0; begin < open.size();) {
      const int32_t v = open[begin].first;
      size_t end = begin;
      while (end < open.size() && open[end].first == v) ++end;
      // Its real triangles, each as (a, b) with (v, a, b) counterclockwise.
      std::vector<std::pair<int32_t, int32_t>> fan;
      bool hull = false;
      bool ok = true;
      const Delaunay::Triangle* any = nullptr;
      for (size_t e = begin; e < end; ++e) {
        const Delaunay::Triangle& t = triangles[open[e].second];
        if (dt.IsSynthetic(t.v[0]) || dt.IsSynthetic(t.v[1]) ||
            dt.IsSynthetic(t.v[2])) {
          hull = true;
          continue;
        }
        const Verdict verdict = certify(t);
        if (verdict == Verdict::kDegenerate) return false;
        ok = ok && verdict == Verdict::kCertified;
        const int i = t.v[0] == v ? 0 : t.v[1] == v ? 1 : 2;
        int32_t a = t.v[(i + 1) % 3];
        int32_t b = t.v[(i + 2) % 3];
        if (Orient2D(points[v], points[a], points[b]) < 0.0) std::swap(a, b);
        fan.push_back({a, b});
        any = &t;
      }
      begin = end;
      if (ok && hull) {
        // A kept site on the local hull: its real triangles fan
        // counterclockwise from `first_end` to `last_end`. When no site of
        // the full set lies strictly outside that wedge, the site is on the
        // full set's hull, the rest of its star in the full triangulation
        // has no real vertex, and the fan's corners are its whole row.
        int32_t first_end = -1;
        int32_t last_end = -1;
        int ends = 0;
        for (const auto& [a, b] : fan) {
          const auto ends_at_a = [&](const auto& e) { return e.second == a; };
          const auto starts_at_b = [&](const auto& e) { return e.first == b; };
          if (std::none_of(fan.begin(), fan.end(), ends_at_a)) {
            first_end = a;
            ++ends;
          }
          if (std::none_of(fan.begin(), fan.end(), starts_at_b)) {
            last_end = b;
            ++ends;
          }
        }
        // No real triangle (a row of sites), or a fan with a gap.
        if (any == nullptr || ends != 2) return false;
        // A site outside the wedge, searched ring by ring from the site's
        // bucket: a true hull site scans every bucket once, any other
        // usually meets one nearby.
        const Point& p = points[v];
        const int32_t column = grid.ColumnOfSite(site_of[v]);
        const int32_t row = grid.RowOfSite(site_of[v]);
        int32_t outside = -1;
        for (int32_t r = 0; r <= grid.LastRing(column, row) && outside < 0;
             ++r) {
          grid.ForEachBucketInRing(column, row, r, [&](int32_t x, int32_t y) {
            for (int32_t k = grid.BucketBegin(x, y);
                 k < grid.BucketEnd(x, y) && outside < 0; ++k) {
              if (Orient2D(p, points[first_end], sites[k]) < 0.0 ||
                  Orient2D(p, points[last_end], sites[k]) > 0.0) {
                outside = k;
              }
            }
          });
        }
        if (outside >= 0) {
          take_in(*any, outside);
          ok = false;
        }
      }
      if (ok) certified[v] = 1;
    }
    if (failed.empty()) {
      out->points = points;
      out->sites = triangulated;
      out->vertex.clear();
      out->rows.clear();
      for (const int32_t k : kept) {
        const int32_t v = vertex_of[k];
        std::vector<int32_t> row = dt.Neighbors(v);
        std::sort(row.begin(), row.end(), [&](int32_t a, int32_t b) {
          return LessXY(points[a], points[b]);
        });
        out->vertex.push_back(v);
        out->rows.push_back(std::move(row));
      }
      return true;
    }
    // The next pass inserts the failing sites' buckets and the grown
    // halos; stop when that would add nothing.
    fresh.clear();
    for (const int32_t b : failed) include(b, 0);
    for (size_t i = 0; i < rings.size(); ++i) {
      if (wanted[i] > rings[i]) include(kept_buckets[i], wanted[i]);
    }
    rings.swap(wanted);
    if (fresh.empty()) return false;
    for (const int32_t k : fresh) {
      const int32_t v = dt.Insert(sites[k], nullptr);
      MOVD_CHECK(v >= 0);
      vertex_of[k] = v;
      if (static_cast<size_t>(v) >= site_of.size()) {
        site_of.resize(static_cast<size_t>(v) + 1, -1);
        certified.resize(static_cast<size_t>(v) + 1, 0);
      }
      site_of[v] = k;
    }
    triangulated += fresh.size();
  }
  return false;
}

}  // namespace

std::vector<VoronoiCell> ClipKeptCells(const SiteGrid& grid,
                                       std::span<const uint8_t> keep,
                                       const Rect& bounds,
                                       KeptCellsStats* stats) {
  const std::vector<Point>& sites = grid.sites();
  MOVD_CHECK(keep.size() == sites.size());
  std::vector<VoronoiCell> cells(sites.size());
  std::vector<int32_t> kept;
  for (size_t i = 0; i < sites.size(); ++i) {
    cells[i].site = static_cast<int32_t>(i);
    if (keep[i] != 0) kept.push_back(static_cast<int32_t>(i));
  }
  *stats = KeptCellsStats();
  if (kept.empty()) return cells;

  LocalStars local;
  std::optional<VoronoiDiagram> full;
  {
    TraceSpan span("local_delaunay");
    // Every site kept means a hull site is kept; outside
    // ExactDistanceRange the certificate's predicates may not be exact.
    if (kept.size() < sites.size() && ExactDistanceRange(sites) &&
        CertifyKeptStars(grid, keep, kept, &local)) {
      stats->sites = local.sites;
    } else {
      stats->sites = sites.size();
      stats->full_fallbacks = 1;
      // Today's full route. Its first_input() indexes grid.sites().
      full = VoronoiDiagram::Triangulate(sites, bounds);
    }
    stats->halo_rings = static_cast<size_t>(local.rings);
    span.Counter("sites", static_cast<int64_t>(stats->sites));
    span.Counter("halo_rings", static_cast<int64_t>(stats->halo_rings));
    span.Counter("full_fallbacks",
                 static_cast<int64_t>(stats->full_fallbacks));
  }
  if (full) {
    std::vector<uint8_t> sorted_keep(sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
      sorted_keep[i] = keep[full->first_input()[i]];
    }
    full->ClipCells(sorted_keep);
    const std::vector<int32_t> grid_site = full->first_input();
    std::vector<VoronoiCell> sorted = std::move(*full).TakeCells();
    for (size_t i = 0; i < sorted.size(); ++i) {
      cells[grid_site[i]].region = std::move(sorted[i].region);
    }
    return cells;
  }
  TraceSpan span("voronoi_cells");
  size_t clip_steps = 0;
  for (size_t i = 0; i < kept.size(); ++i) {
    cells[kept[i]].region = CanonicalVoronoiCell(
        local.points, local.vertex[i], local.rows[i], bounds, &clip_steps);
  }
  span.Counter("clip_steps", static_cast<int64_t>(clip_steps));
  return cells;
}

}  // namespace movd
