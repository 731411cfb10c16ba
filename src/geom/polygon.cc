#include "geom/polygon.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "geom/predicates.h"
#include "util/check.h"

namespace movd {
namespace {

// Removes consecutive duplicate vertices (including wrap-around).
void Dedup(std::vector<Point>* pts) {
  pts->erase(std::unique(pts->begin(), pts->end()), pts->end());
  while (pts->size() > 1 && pts->front() == pts->back()) pts->pop_back();
}

double RingSignedArea(const std::vector<Point>& v) {
  double area2 = 0.0;
  for (size_t i = 0, n = v.size(); i < n; ++i) {
    const Point& p = v[i];
    const Point& q = v[(i + 1) % n];
    area2 += p.Cross(q);
  }
  return 0.5 * area2;
}

// Intersection of segment (p, q) with the infinite line through (a, b).
// The caller guarantees p and q straddle the line per the *exact*
// predicates; the double-precision denominator can still vanish when p and
// q differ by an ulp, in which case either endpoint is the crossing within
// representable precision.
Point LineSegmentCross(const Point& a, const Point& b, const Point& p,
                       const Point& q) {
  const Point d = b - a;
  const double denom = d.Cross(q - p);
  if (denom == 0.0) return p;
  double t = d.Cross(a - p) / denom;  // position along p->q
  t = std::clamp(t, 0.0, 1.0);
  return p + (q - p) * t;
}

}  // namespace

void ClipRing(std::span<const Point> in, const Point& a, const Point& b,
              std::vector<Point>* out) {
  out->clear();
  double side_p = Orient2D(a, b, in[0]);
  // Emits the part of edge p->q left of the line, less q.
  const auto step = [&](const Point& p, const Point& q) {
    const double side_q = Orient2D(a, b, q);
    if (side_p >= 0.0) {
      out->push_back(p);
      if (side_q < 0.0) out->push_back(LineSegmentCross(a, b, p, q));
    } else if (side_q >= 0.0) {
      out->push_back(LineSegmentCross(a, b, p, q));
    }
    side_p = side_q;
  };
  for (size_t i = 1; i < in.size(); ++i) step(in[i - 1], in[i]);
  step(in.back(), in[0]);
  Dedup(out);
  if (out->size() < 3) out->clear();
}

namespace {

// Clips the ring `a` by every edge of the ring `b` (both non-empty, convex
// and CCW) and returns the result, empty when it collapsed. These are
// exactly the ClipRing steps of repeated ClipByHalfPlane calls, but they
// alternate between two thread-local scratch rings, so nothing is
// allocated once the rings have grown. The returned ring stays valid until
// the calling thread's next call.
const std::vector<Point>& ClipConvex(const std::vector<Point>& a,
                                     const std::vector<Point>& b) {
  thread_local std::vector<Point> rings[2];
  const std::vector<Point>* cur = &a;
  for (size_t i = 0, n = b.size(); i < n; ++i) {
    std::vector<Point>* next = cur == &rings[0] ? &rings[1] : &rings[0];
    ClipRing(*cur, b[i], b[(i + 1) % n], next);
    cur = next;
    if (cur->empty()) break;
  }
  return *cur;
}

bool PointInTriangle(const Point& a, const Point& b, const Point& c,
                     const Point& p) {
  // Triangle is CCW; boundary counts as inside.
  return Orient2D(a, b, p) >= 0.0 && Orient2D(b, c, p) >= 0.0 &&
         Orient2D(c, a, p) >= 0.0;
}

}  // namespace

ConvexPolygon::ConvexPolygon(std::vector<Point> vertices)
    : vertices_(std::move(vertices)) {
  Dedup(&vertices_);
  if (vertices_.size() < 3) {
    vertices_.clear();
    return;
  }
#ifndef NDEBUG
  // Far from unit scale Orient2D's products overflow or underflow; the
  // power-of-two scaled copy has the same turn signs.
  const std::vector<Point> ring =
      ScalePoints(vertices_, PredicateScaleExponent(vertices_));
  for (size_t i = 0, n = ring.size(); i < n; ++i) {
    MOVD_DCHECK(Orient2D(ring[i], ring[(i + 1) % n], ring[(i + 2) % n]) >=
                0.0);
  }
#endif
}

ConvexPolygon ConvexPolygon::FromTrustedRing(std::vector<Point> vertices) {
  ConvexPolygon p;
  p.vertices_ = std::move(vertices);
  if (p.vertices_.size() < 3) p.vertices_.clear();
  return p;
}

ConvexPolygon ConvexPolygon::FromRect(const Rect& r) {
  if (r.Empty()) return ConvexPolygon();
  return ConvexPolygon({{r.min_x, r.min_y},
                        {r.max_x, r.min_y},
                        {r.max_x, r.max_y},
                        {r.min_x, r.max_y}});
}

ConvexPolygon ConvexPolygon::Intersect(const ConvexPolygon& a,
                                       const ConvexPolygon& b) {
  if (a.Empty() || b.Empty()) return ConvexPolygon();
  if (!a.Bbox().Intersects(b.Bbox())) return ConvexPolygon();
  return FromTrustedRing(ClipConvex(a.vertices_, b.vertices_));
}

double ConvexPolygon::Area() const {
  return Empty() ? 0.0 : std::fabs(RingSignedArea(vertices_));
}

Point ConvexPolygon::Centroid() const {
  MOVD_CHECK(!Empty());
  double cx = 0.0, cy = 0.0, area2 = 0.0;
  for (size_t i = 0, n = vertices_.size(); i < n; ++i) {
    const Point& p = vertices_[i];
    const Point& q = vertices_[(i + 1) % n];
    const double w = p.Cross(q);
    cx += (p.x + q.x) * w;
    cy += (p.y + q.y) * w;
    area2 += w;
  }
  if (area2 == 0.0) return vertices_[0];  // degenerate: any vertex
  return Point(cx / (3.0 * area2), cy / (3.0 * area2));
}

Rect ConvexPolygon::Bbox() const {
  Rect r;
  for (const Point& p : vertices_) r.Expand(p);
  return r;
}

bool ConvexPolygon::Contains(const Point& p) const {
  if (Empty()) return false;
  for (size_t i = 0, n = vertices_.size(); i < n; ++i) {
    if (Orient2D(vertices_[i], vertices_[(i + 1) % n], p) < 0.0) return false;
  }
  return true;
}

void ConvexPolygon::ClipByHalfPlane(const Point& a, const Point& b) {
  if (Empty()) return;
  std::vector<Point> out;
  out.reserve(vertices_.size() + 1);
  ClipRing(vertices_, a, b, &out);
  vertices_ = std::move(out);
}

void ConvexPolygon::DropIfSliver(double min_area) {
  if (!Empty() && Area() < min_area) vertices_.clear();
}

Polygon::Polygon(std::vector<Point> vertices) : vertices_(std::move(vertices)) {
  Dedup(&vertices_);
  if (vertices_.size() < 3) {
    vertices_.clear();
    return;
  }
  // Normalise to CCW orientation.
  if (RingSignedArea(vertices_) < 0.0) {
    std::reverse(vertices_.begin(), vertices_.end());
  }
}

double Polygon::SignedArea() const {
  return Empty() ? 0.0 : RingSignedArea(vertices_);
}

bool Polygon::IsConvex() const {
  if (Empty()) return false;
  for (size_t i = 0, n = vertices_.size(); i < n; ++i) {
    if (Orient2D(vertices_[i], vertices_[(i + 1) % n],
                 vertices_[(i + 2) % n]) < 0.0) {
      return false;
    }
  }
  return true;
}

Rect Polygon::Bbox() const {
  Rect r;
  for (const Point& p : vertices_) r.Expand(p);
  return r;
}

bool Polygon::Contains(const Point& p) const {
  if (Empty()) return false;
  bool inside = false;
  for (size_t i = 0, n = vertices_.size(); i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    // Boundary check: p on segment (a, b).
    if (Orient2D(a, b, p) == 0.0 && p.x >= std::min(a.x, b.x) &&
        p.x <= std::max(a.x, b.x) && p.y >= std::min(a.y, b.y) &&
        p.y <= std::max(a.y, b.y)) {
      return true;
    }
    // Crossing-number ray cast to +x.
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (x_cross > p.x) inside = !inside;
    }
  }
  return inside;
}

std::vector<ConvexPolygon> Polygon::Triangulate() const {
  std::vector<ConvexPolygon> out;
  if (Empty()) return out;
  std::vector<Point> ring = vertices_;

  // Ear clipping. Each iteration removes one vertex; a full pass without an
  // ear indicates a degenerate ring, in which case remaining collinear
  // vertices are dropped.
  while (ring.size() > 3) {
    const size_t n = ring.size();
    bool clipped = false;
    for (size_t i = 0; i < n; ++i) {
      const Point& prev = ring[(i + n - 1) % n];
      const Point& cur = ring[i];
      const Point& next = ring[(i + 1) % n];
      const double turn = Orient2D(prev, cur, next);
      if (turn < 0.0) continue;  // reflex vertex, not an ear
      if (turn == 0.0) {
        // Collinear vertex contributes no area; drop it outright.
        ring.erase(ring.begin() + static_cast<ptrdiff_t>(i));
        clipped = true;
        break;
      }
      bool blocked = false;
      for (size_t j = 0; j < n && !blocked; ++j) {
        if (j == i || j == (i + n - 1) % n || j == (i + 1) % n) continue;
        blocked = PointInTriangle(prev, cur, next, ring[j]);
      }
      if (blocked) continue;
      out.push_back(ConvexPolygon({prev, cur, next}));
      ring.erase(ring.begin() + static_cast<ptrdiff_t>(i));
      clipped = true;
      break;
    }
    if (!clipped) break;  // non-simple input; emit what we have
  }
  if (ring.size() == 3 && Orient2D(ring[0], ring[1], ring[2]) > 0.0) {
    out.push_back(ConvexPolygon(std::move(ring)));
  }
  return out;
}

Region Region::FromConvex(ConvexPolygon piece) {
  Region r;
  if (!piece.Empty()) r.pieces_.push_back(std::move(piece));
  return r;
}

Region Region::FromPolygon(const Polygon& polygon) {
  if (polygon.Empty()) return Region();
  if (polygon.IsConvex()) {
    return FromConvex(ConvexPolygon(polygon.vertices()));
  }
  Region r;
  r.pieces_ = polygon.Triangulate();
  return r;
}

Region Region::FromRect(const Rect& r) {
  return FromConvex(ConvexPolygon::FromRect(r));
}

Region Region::FromPieces(std::vector<ConvexPolygon> pieces) {
  Region r;
  for (ConvexPolygon& piece : pieces) {
    if (!piece.Empty()) r.pieces_.push_back(std::move(piece));
  }
  return r;
}

Region Region::Intersect(const Region& a, const Region& b, double min_area) {
  // Each piece's box is computed once per call, not once per piece pair.
  // Empty pieces have empty boxes and never pass the box test.
  thread_local std::vector<Rect> b_boxes;
  b_boxes.clear();
  for (const ConvexPolygon& pb : b.pieces_) b_boxes.push_back(pb.Bbox());
  Region out;
  for (const ConvexPolygon& pa : a.pieces_) {
    const Rect ba = pa.Bbox();
    for (size_t j = 0; j < b_boxes.size(); ++j) {
      if (!ba.Intersects(b_boxes[j])) continue;
      // The clipped ring is tested in scratch, so empty and sliver pieces
      // (ConvexPolygon::DropIfSliver) are never allocated.
      const std::vector<Point>& ring =
          ClipConvex(pa.vertices(), b.pieces_[j].vertices());
      if (ring.empty() || std::fabs(RingSignedArea(ring)) < min_area) {
        continue;
      }
      out.pieces_.push_back(ConvexPolygon::FromTrustedRing(ring));
    }
  }
  return out;
}

double Region::Area() const {
  double a = 0.0;
  for (const ConvexPolygon& p : pieces_) a += p.Area();
  return a;
}

Rect Region::Bbox() const {
  Rect r;
  for (const ConvexPolygon& p : pieces_) r.Expand(p.Bbox());
  return r;
}

size_t Region::VertexCount() const {
  size_t n = 0;
  for (const ConvexPolygon& p : pieces_) n += p.VertexCount();
  return n;
}

bool Region::Contains(const Point& p) const {
  for (const ConvexPolygon& piece : pieces_) {
    if (piece.Contains(p)) return true;
  }
  return false;
}

}  // namespace movd
