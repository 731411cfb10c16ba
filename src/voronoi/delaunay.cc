#include "voronoi/delaunay.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "geom/predicates.h"
#include "geom/rect.h"
#include "util/check.h"
#include "util/hilbert.h"

namespace movd {
namespace {

// Index of `value` within the triangle vertex array.
int IndexOf(const int32_t v[3], int32_t value) {
  for (int i = 0; i < 3; ++i) {
    if (v[i] == value) return i;
  }
  return -1;
}

}  // namespace

Delaunay::Delaunay(const std::vector<Point>& points) {
  Build(points, nullptr);
}

Delaunay::Delaunay(const std::vector<Point>& points, const Rect& world) {
  Build(points, &world);
}

void Delaunay::Build(const std::vector<Point>& points, const Rect* world) {
  points_ = points;
  // VoronoiDiagram::Build hands over sites it has already sorted.
  if (!std::is_sorted(points_.begin(), points_.end(), LessXY)) {
    std::sort(points_.begin(), points_.end(), LessXY);
  }
  points_.erase(std::unique(points_.begin(), points_.end()), points_.end());
  num_real_ = points_.size();
  // Far from unit scale the predicates' degree-4 terms overflow or
  // underflow and edges silently go missing; a power-of-two scale keeps
  // every sign, so ordinary inputs (exponent 0) are untouched. With a
  // world, its corners join the points, so every later insert is covered.
  std::vector<Point> world_corners;
  if (world != nullptr) {
    world_corners = {{world->min_x, world->min_y},
                     {world->max_x, world->max_y}};
  }
  if (world_corners.empty()) {
    exponent_ = PredicateScaleExponent(points_);
  } else {
    std::vector<Point> extent = points_;
    extent.insert(extent.end(), world_corners.begin(), world_corners.end());
    exponent_ = PredicateScaleExponent(extent);
  }
  if (exponent_ != 0) {
    input_points_ = std::move(points_);
    points_ = ScalePoints(input_points_, exponent_);
  }

  // Bounding super-quad, far enough away that within the covered box the
  // synthetic vertices never shadow a real Delaunay edge in practice:
  // VoronoiDiagram::Build relies on that for exact cells.
  Rect bb;
  for (const Point& p : points_) bb.Expand(p);
  if (bb.Empty()) bb = Rect(0, 0, 1, 1);
  cover_ = bb;
  for (const Point& p : ScalePoints(world_corners, exponent_)) {
    cover_.Expand(p);
  }
  const double span = std::max({cover_.Width(), cover_.Height(), 1.0});
  const Point c = cover_.Center();
  const double kFar = 1e6;
  const double s = span * kFar;
  const int32_t q0 = static_cast<int32_t>(points_.size());
  quad_ = q0;
  points_.push_back({c.x - s, c.y - s});
  points_.push_back({c.x + s, c.y - s});
  points_.push_back({c.x + s, c.y + s});
  points_.push_back({c.x - s, c.y + s});
  if (exponent_ != 0) {
    const std::vector<Point> quad =
        ScalePoints(std::span(points_).subspan(q0), -exponent_);
    input_points_.insert(input_points_.end(), quad.begin(), quad.end());
  }

  // Each insert turns a cavity of k triangles into a fan of k + 2, so the
  // two starting triangles grow to exactly 2n + 2 slots.
  tris_.reserve(2 * num_real_ + 2);
  // The two triangles share the diagonal (q0, q2): opposite vertex 1 in the
  // first triangle and vertex 2 in the second.
  tris_.push_back({{q0, q0 + 1, q0 + 2}, {-1, 1, -1}, true});
  tris_.push_back({{q0, q0 + 2, q0 + 3}, {-1, -1, 0}, true});
  last_created_ = 0;

  // Hilbert-sorted insertion order over the real points: a stable LSD
  // radix sort of the keys, one byte per pass, so points in one Hilbert
  // cell keep ascending index. That is the (key, index) order, and it does
  // not depend on any sort implementation.
  constexpr uint32_t kOrder = 16;
  static_assert(2 * kOrder <= 32, "Hilbert keys must fit 32 bits");
  const double scale = (1u << kOrder) - 1;
  std::vector<uint32_t> key(num_real_);
  for (size_t i = 0; i < num_real_; ++i) {
    const uint32_t hx = static_cast<uint32_t>(
        (points_[i].x - bb.min_x) / std::max(bb.Width(), 1e-300) * scale);
    const uint32_t hy = static_cast<uint32_t>(
        (points_[i].y - bb.min_y) / std::max(bb.Height(), 1e-300) * scale);
    key[i] = static_cast<uint32_t>(HilbertIndex(kOrder, hx, hy));
  }
  std::vector<int32_t> order(num_real_);
  for (size_t i = 0; i < num_real_; ++i) order[i] = static_cast<int32_t>(i);
  std::vector<int32_t> spare(num_real_);
  for (uint32_t shift = 0; shift < 32 && num_real_ > 1; shift += 8) {
    // start[d + 1] counts the keys with digit d, then becomes where they go.
    std::array<size_t, 257> start{};
    for (const uint32_t k : key) ++start[((k >> shift) & 0xff) + 1];
    if (start[((key[0] >> shift) & 0xff) + 1] == num_real_) continue;
    for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const int32_t i : order) spare[start[(key[i] >> shift) & 0xff]++] = i;
    order.swap(spare);
  }

  InsertScratch scratch;
  scratch.cavity_stamp.reserve(tris_.capacity());
  for (const int32_t pi : order) {
    Insert(pi, Locate(points_[pi], last_created_), &scratch);
  }
}

int32_t Delaunay::Locate(const Point& p, int32_t hint) const {
  int32_t cur = hint;
  MOVD_DCHECK(tris_[cur].alive);
  size_t steps = 0;
  const size_t max_steps = 4 * tris_.size() + 64;
  int32_t prev = -1;
  while (steps++ < max_steps) {
    const Tri& t = tris_[cur];
    int32_t next = -1;
    for (int i = 0; i < 3; ++i) {
      const int32_t nb = t.nb[i];
      if (nb == prev || nb < 0) continue;
      const Point& a = points_[t.v[(i + 1) % 3]];
      const Point& b = points_[t.v[(i + 2) % 3]];
      if (Orient2D(a, b, p) < 0.0) {
        next = nb;
        break;
      }
    }
    if (next < 0) {
      // Re-check all edges including the one back to prev (p may sit in
      // prev after a degenerate step); if none is violated, cur contains p.
      bool inside = true;
      for (int i = 0; i < 3; ++i) {
        const Point& a = points_[t.v[(i + 1) % 3]];
        const Point& b = points_[t.v[(i + 2) % 3]];
        if (Orient2D(a, b, p) < 0.0) {
          inside = false;
          if (t.nb[i] >= 0) next = t.nb[i];
          break;
        }
      }
      if (inside) return cur;
      if (next < 0) break;  // walked off the triangulation: shouldn't happen
    }
    prev = cur;
    cur = next;
  }
  // Fallback: exhaustive scan (degenerate walk cycles are theoretically
  // impossible with exact predicates, but stay safe).
  for (size_t i = 0; i < tris_.size(); ++i) {
    if (!tris_[i].alive) continue;
    const Tri& t = tris_[i];
    bool inside = true;
    for (int e = 0; e < 3 && inside; ++e) {
      inside = Orient2D(points_[t.v[(e + 1) % 3]], points_[t.v[(e + 2) % 3]],
                        p) >= 0.0;
    }
    if (inside) return static_cast<int32_t>(i);
  }
  MOVD_CHECK(false);  // point outside the super-quad
  return -1;
}

bool Delaunay::InCavity(int32_t tri, const Point& p) const {
  const Tri& t = tris_[tri];
  return InCircle(points_[t.v[0]], points_[t.v[1]], points_[t.v[2]], p) > 0.0;
}

void Delaunay::Insert(int32_t pi, int32_t seed, InsertScratch* scratch) {
  const Point& p = points_[pi];
  std::vector<int32_t>& cavity = scratch->cavity;
  std::vector<int32_t>& stack = scratch->stack;
  std::vector<BoundaryEdge>& boundary = scratch->boundary;
  std::vector<int32_t>& new_ids = scratch->new_ids;
  std::vector<uint32_t>& cavity_stamp = scratch->cavity_stamp;
  cavity.clear();
  stack.clear();
  boundary.clear();
  new_ids.clear();
  cavity_stamp.resize(tris_.size(), 0);
  const uint32_t stamp = ++scratch->stamp;
  const auto in_cavity = [&](int32_t tri) {
    return cavity_stamp[tri] == stamp;
  };

  // Grow the cavity: all triangles whose circumcircle strictly contains p.
  stack.push_back(seed);
  cavity_stamp[seed] = stamp;
  while (!stack.empty()) {
    const int32_t cur = stack.back();
    stack.pop_back();
    cavity.push_back(cur);
    for (int i = 0; i < 3; ++i) {
      const int32_t nb = tris_[cur].nb[i];
      if (nb < 0 || in_cavity(nb)) continue;
      if (InCavity(nb, p)) {
        cavity_stamp[nb] = stamp;
        stack.push_back(nb);
      }
    }
  }

  // Collect the boundary: directed edges (a, b) of cavity triangles whose
  // across-neighbour is outside the cavity. Cavity interior lies to the
  // left of each directed edge.
  for (const int32_t ti : cavity) {
    const Tri& t = tris_[ti];
    for (int i = 0; i < 3; ++i) {
      const int32_t nb = t.nb[i];
      if (nb >= 0 && in_cavity(nb)) continue;
      boundary.push_back({t.v[(i + 1) % 3], t.v[(i + 2) % 3], nb});
    }
  }

  // Retriangulate the cavity as a fan around p.
  // Reuse dead slots to curb growth: the cavity's, then those Remove freed.
  size_t reuse_cursor = 0;
  auto alloc = [&]() -> int32_t {
    if (reuse_cursor < cavity.size()) return cavity[reuse_cursor++];
    if (!free_tris_.empty()) {
      const int32_t id = free_tris_.back();
      free_tris_.pop_back();
      return id;
    }
    tris_.push_back({});
    return static_cast<int32_t>(tris_.size() - 1);
  };
  for (const int32_t ti : cavity) tris_[ti].alive = false;

  for (const BoundaryEdge& e : boundary) {
    const int32_t id = alloc();
    Tri& t = tris_[id];
    t.v[0] = e.a;
    t.v[1] = e.b;
    t.v[2] = pi;
    t.nb[0] = -1;  // edge (b, p): wired below
    t.nb[1] = -1;  // edge (p, a): wired below
    t.nb[2] = e.outside;
    t.alive = true;
    if (e.outside >= 0) {
      Tri& o = tris_[e.outside];
      // Find the edge of `outside` matching (b, a) and point it at us.
      for (int i = 0; i < 3; ++i) {
        if (o.v[(i + 1) % 3] == e.b && o.v[(i + 2) % 3] == e.a) {
          o.nb[i] = id;
          break;
        }
      }
    }
    new_ids.push_back(id);
  }
  // Stitch the fan: new_ids[k] is the triangle on boundary[k], with edges
  // (b, p) and (p, a). Its (b, p) neighbour is the triangle on the
  // boundary edge that starts at b; the cavity is star-shaped around p,
  // so that edge is unique, and the short boundary list is scanned for it.
  // Wiring both sides from here also sets every nb[1].
  for (size_t k = 0; k < boundary.size(); ++k) {
    size_t j = 0;
    while (j < boundary.size() && boundary[j].a != boundary[k].b) ++j;
    MOVD_DCHECK(j < boundary.size());
    tris_[new_ids[k]].nb[0] = new_ids[j];
    tris_[new_ids[j]].nb[1] = new_ids[k];
  }
  last_created_ = new_ids.empty() ? last_created_ : new_ids.back();
  MOVD_DCHECK(!new_ids.empty());
}

bool Delaunay::ToPredicate(const Point& p, Point* q) const {
  *q = {std::ldexp(p.x, exponent_), std::ldexp(p.y, exponent_)};
  return std::ldexp(q->x, -exponent_) == p.x &&
         std::ldexp(q->y, -exponent_) == p.y;
}

int32_t Delaunay::TriangleAt(int32_t v) const {
  if (v < 0 || v >= static_cast<int32_t>(points_.size()) || IsSynthetic(v)) {
    return -1;
  }
  // A vertex lies on no edge it does not end, so the triangle the walk
  // stops in has v as a corner, unless v is a dead slot.
  const int32_t t = Locate(points_[v], last_created_);
  return IndexOf(tris_[t].v, v) >= 0 ? t : -1;
}

int32_t Delaunay::Insert(const Point& p, std::vector<int32_t>* affected) {
  Point q;
  if (!std::isfinite(p.x) || !std::isfinite(p.y) || !ToPredicate(p, &q) ||
      !cover_.Contains(q)) {
    return -1;
  }
  const int32_t seed = Locate(q, last_created_);
  for (const int32_t v : tris_[seed].v) {
    if (points_[v] == q) return -1;  // already a vertex
  }
  int32_t pi;
  if (!free_vertices_.empty()) {
    pi = free_vertices_.back();
    free_vertices_.pop_back();
    points_[pi] = q;
    if (exponent_ != 0) input_points_[pi] = p;
  } else {
    pi = static_cast<int32_t>(points_.size());
    points_.push_back(q);
    if (exponent_ != 0) input_points_.push_back(p);
  }
  Insert(pi, seed, &scratch_);
  ++num_real_;
  if (affected != nullptr) {
    // The fan's rim is p's link: exactly the vertices whose edges changed.
    affected->assign(1, pi);
    for (const BoundaryEdge& e : scratch_.boundary) {
      if (!IsSynthetic(e.a)) affected->push_back(e.a);
    }
  }
  return pi;
}

bool Delaunay::Remove(int32_t v, std::vector<int32_t>* affected) {
  const int32_t t0 = TriangleAt(v);
  if (t0 < 0) return false;

  // The star of v, walked counterclockwise: star triangle (v, a, b)
  // contributes the link edge a->b (the star to its left) and the
  // triangle `outside[k]` across it; the next star triangle is the one
  // across (b, v).
  std::vector<int32_t> star;
  std::vector<int32_t> link;
  std::vector<int32_t> outside;
  int32_t t = t0;
  do {
    const int i = IndexOf(tris_[t].v, v);
    if (i < 0 || star.size() > tris_.size()) return false;  // corrupt star
    star.push_back(t);
    link.push_back(tris_[t].v[(i + 1) % 3]);
    outside.push_back(tris_[t].nb[i]);
    t = tris_[t].nb[(i + 1) % 3];
    if (t < 0) return false;
  } while (t != t0);
  const size_t m = star.size();
  if (m < 3) return false;
  // Start the cycle at the smallest link vertex id so the ear scan order
  // (and with it the diagonal choice in cocircular holes) is a function of
  // the triangulation, not of where the walk began.
  const auto first = static_cast<std::ptrdiff_t>(
      std::min_element(link.begin(), link.end()) - link.begin());
  std::rotate(link.begin(), link.begin() + first, link.end());
  std::rotate(outside.begin(), outside.begin() + first, outside.end());

  // Plan the hole's triangulation by Delaunay ear-clipping before
  // mutating anything, so a stall leaves the triangulation untouched. An
  // ear (a, b, c) is valid when it is counterclockwise and no other
  // remaining link vertex lies strictly inside its circumcircle (which
  // also excludes any vertex inside the triangle itself).
  std::vector<std::array<int32_t, 3>> ears;
  std::vector<int32_t> poly = link;
  while (poly.size() > 3) {
    bool clipped = false;
    for (size_t i = 0; i < poly.size() && !clipped; ++i) {
      const size_t n = poly.size();
      const int32_t a = poly[(i + n - 1) % n];
      const int32_t b = poly[i];
      const int32_t c = poly[(i + 1) % n];
      if (Orient2D(points_[a], points_[b], points_[c]) <= 0.0) continue;
      bool empty = true;
      for (const int32_t d : poly) {
        if (d == a || d == b || d == c) continue;
        if (InCircle(points_[a], points_[b], points_[c], points_[d]) > 0.0) {
          empty = false;
          break;
        }
      }
      if (!empty) continue;
      ears.push_back({a, b, c});
      poly.erase(poly.begin() + static_cast<std::ptrdiff_t>(i));
      clipped = true;
    }
    if (!clipped) return false;  // stalled; the caller rebuilds
  }
  if (Orient2D(points_[poly[0]], points_[poly[1]], points_[poly[2]]) <= 0.0) {
    return false;
  }
  ears.push_back({poly[0], poly[1], poly[2]});

  if (affected != nullptr) {
    affected->clear();
    for (const int32_t u : link) {
      if (!IsSynthetic(u)) affected->push_back(u);
    }
  }

  // Apply: materialise the ears in the star's slots, wiring adjacency
  // through the directed half-edges seen so far. The list starts with the
  // hole's rim: the triangle outside link edge (a, b) owns the half-edge
  // (b, a).
  struct HalfEdge {
    int32_t from, to;
    int32_t tri;
    int edge;
  };
  std::vector<HalfEdge> half;
  for (size_t k = 0; k < m; ++k) {
    const int32_t a = link[k];
    const int32_t b = link[(k + 1) % m];
    const int32_t o = outside[k];
    if (o < 0) continue;
    for (int e = 0; e < 3; ++e) {
      if (tris_[o].v[(e + 1) % 3] == b && tris_[o].v[(e + 2) % 3] == a) {
        half.push_back({b, a, o, e});
        break;
      }
    }
  }
  for (size_t k = 0; k < ears.size(); ++k) {
    const int32_t id = star[k];
    Tri& tri = tris_[id];
    tri = {{ears[k][0], ears[k][1], ears[k][2]}, {-1, -1, -1}, true};
    for (int e = 0; e < 3; ++e) {
      const int32_t from = tri.v[(e + 1) % 3];
      const int32_t to = tri.v[(e + 2) % 3];
      const auto partner =
          std::find_if(half.begin(), half.end(), [&](const HalfEdge& h) {
            return h.from == to && h.to == from;
          });
      if (partner != half.end()) {
        tri.nb[e] = partner->tri;
        tris_[partner->tri].nb[partner->edge] = id;
      } else {
        half.push_back({from, to, id, e});
      }
    }
  }
  // An m-gon has m-2 ears, so two star slots are left over.
  for (size_t k = ears.size(); k < m; ++k) {
    tris_[star[k]].alive = false;
    free_tris_.push_back(star[k]);
  }
  last_created_ = star.front();
  free_vertices_.push_back(v);
  --num_real_;
  return true;
}

std::vector<Delaunay::Triangle> Delaunay::Triangles() const {
  // Position of each live slot in the output (the identity until a Remove
  // leaves dead slots).
  std::vector<int32_t> position(tris_.size(), -1);
  int32_t live = 0;
  for (size_t i = 0; i < tris_.size(); ++i) {
    if (tris_[i].alive) position[i] = live++;
  }
  std::vector<Triangle> out;
  out.reserve(static_cast<size_t>(live));
  for (const Tri& t : tris_) {
    if (!t.alive) continue;
    Triangle tri;
    for (int i = 0; i < 3; ++i) {
      tri.v[i] = t.v[i];
      tri.neighbor[i] = t.nb[i] < 0 ? -1 : position[t.nb[i]];
    }
    out.push_back(tri);
  }
  return out;
}

void Delaunay::AppendStar(int32_t v, int32_t t0, int32_t limit,
                          std::vector<int32_t>* out) const {
  // Rotate around v: the next star triangle is the one across the edge
  // from the current one's third corner back to v.
  int32_t t = t0;
  size_t steps = 0;
  do {
    const int i = IndexOf(tris_[t].v, v);
    const int32_t u = tris_[t].v[(i + 1) % 3];
    if (u < limit && !IsSynthetic(u)) out->push_back(u);
    t = tris_[t].nb[(i + 1) % 3];
  } while (t >= 0 && t != t0 && ++steps <= tris_.size());
}

std::vector<int32_t> Delaunay::Neighbors(int32_t site) const {
  std::vector<int32_t> out;
  const int32_t t0 = TriangleAt(site);
  if (t0 >= 0) {
    AppendStar(site, t0, std::numeric_limits<int32_t>::max(), &out);
  }
  return out;
}

NeighborTable Delaunay::Adjacency() const {
  // One live triangle per constructor vertex; -1 for a removed one.
  std::vector<int32_t> corner(static_cast<size_t>(quad_), -1);
  for (size_t t = 0; t < tris_.size(); ++t) {
    if (!tris_[t].alive) continue;
    for (const int32_t v : tris_[t].v) {
      if (v < quad_) corner[v] = static_cast<int32_t>(t);
    }
  }
  NeighborTable table;
  table.offsets.reserve(corner.size() + 1);
  table.offsets.push_back(0);
  // A planar graph on n >= 3 vertices has at most 3n - 6 edges.
  table.ids.reserve(6 * corner.size());
  for (int32_t v = 0; v < quad_; ++v) {
    if (corner[v] >= 0) AppendStar(v, corner[v], quad_, &table.ids);
    const auto begin =
        table.ids.begin() + static_cast<std::ptrdiff_t>(table.offsets.back());
    std::sort(begin, table.ids.end());
    table.offsets.push_back(static_cast<int32_t>(table.ids.size()));
  }
  return table;
}

bool Delaunay::VerifyDelaunay() const {
  std::vector<bool> live(points_.size(), false);
  for (const Tri& t : tris_) {
    if (!t.alive) continue;
    for (const int32_t v : t.v) live[v] = !IsSynthetic(v);
  }
  for (const Tri& t : tris_) {
    if (!t.alive) continue;
    if (IsSynthetic(t.v[0]) || IsSynthetic(t.v[1]) || IsSynthetic(t.v[2])) {
      continue;
    }
    for (size_t p = 0; p < points_.size(); ++p) {
      if (!live[p] || IndexOf(t.v, static_cast<int32_t>(p)) >= 0) continue;
      if (InCircle(points_[t.v[0]], points_[t.v[1]], points_[t.v[2]],
                   points_[p]) > 0.0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace movd
