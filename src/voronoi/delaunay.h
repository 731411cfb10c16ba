#ifndef MOVD_VORONOI_DELAUNAY_H_
#define MOVD_VORONOI_DELAUNAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace movd {

/// Delaunay adjacency of a triangulation's constructor points as one flat
/// table (compressed sparse row): the neighbours of point v are
/// ids[offsets[v] .. offsets[v + 1]), ascending.
struct NeighborTable {
  std::vector<int32_t> offsets;  ///< size() + 1 entries, from 0
  std::vector<int32_t> ids;      ///< every list, back to back

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }

  /// The ascending neighbour list of point `v`.
  std::span<const int32_t> of(int32_t v) const {
    const auto begin = static_cast<size_t>(offsets[v]);
    return std::span(ids).subspan(begin,
                                  static_cast<size_t>(offsets[v + 1]) - begin);
  }
};

/// Delaunay triangulation (Bowyer–Watson with a far-away bounding
/// super-quad, exact predicates, visibility-walk point location,
/// Hilbert-order insertion), built in one batch and then optionally kept
/// current under single-point Insert and Remove calls.
///
/// VoronoiDiagram::Build clips each Voronoi cell by the bisectors against
/// the site's Delaunay neighbours (Adjacency()), so a Delaunay edge this
/// class drops or invents shows up as overlapping or missing cells.
/// Inputs far from unit scale are triangulated on a power-of-two scaled
/// copy (PredicateScaleExponent), which the exact predicates answer with
/// the same signs; points() keeps the caller's coordinates.
///
/// The live-update path (core/update.h) builds with a world rectangle, so
/// the super-quad and the scale exponent cover every point a later Insert
/// may bring, and then patches the triangulation in place. Both mutations
/// report the vertices whose neighbour sets may have changed. Vertex
/// indices stay stable across mutations; a removed vertex leaves a dead
/// slot that a later Insert may reuse.
///
/// Points in general position have one Delaunay triangulation, so a
/// mutated triangulation has the same edges as a fresh build of the same
/// points. Four or more cocircular points admit several, and the one this
/// class keeps depends on the insertion history.
class Delaunay {
 public:
  /// One triangle; vertex indices refer to points(); neighbor[i] is the
  /// triangle across the edge opposite vertex i, or -1.
  struct Triangle {
    int32_t v[3];
    int32_t neighbor[3];
  };

  /// Triangulates `points` (duplicates are collapsed). The four synthetic
  /// super-quad vertices occupy indices n..n+3 of points().
  explicit Delaunay(const std::vector<Point>& points);

  /// As above, but the super-quad and the scale exponent are chosen to
  /// cover `world` as well as `points`, so Insert accepts any point of
  /// `world`.
  Delaunay(const std::vector<Point>& points, const Rect& world);

  /// All vertex slots in the caller's coordinates: the constructor's
  /// points (LessXY-sorted), the 4 synthetic bounding vertices, then the
  /// points added by Insert. A slot freed by Remove keeps its old
  /// coordinates until an Insert reuses it.
  const std::vector<Point>& points() const {
    return input_points_.empty() ? points_ : input_points_;
  }

  /// Number of live real (input, deduplicated) points.
  size_t num_real_points() const { return num_real_; }

  /// The constructor's points in the order it inserted them: Hilbert order
  /// over their bounding box, ties by ascending index.
  const std::vector<int32_t>& insertion_order() const {
    return insertion_order_;
  }

  /// Whether vertex index `v` is one of the four super-quad vertices.
  bool IsSynthetic(int32_t v) const { return v >= quad_ && v < quad_ + 4; }

  /// The live triangles, including those incident to synthetic vertices.
  /// neighbor[] indexes this list.
  std::vector<Triangle> Triangles() const;

  /// Indices of real points adjacent to vertex `site` via a Delaunay edge
  /// (synthetic vertices filtered out); empty when `site` is not a live
  /// real vertex. Order unspecified. Costs a point location plus the
  /// vertex degree.
  std::vector<int32_t> Neighbors(int32_t site) const;

  /// The adjacency of the constructor's points: table.of(i) is
  /// Neighbors(i), ascending. One pass records a live triangle per vertex,
  /// then one star walk per vertex fills its row, so the cost is O(T) with
  /// no allocation per vertex. Edges to vertices added by Insert are left
  /// out, so call it before any mutation.
  NeighborTable Adjacency() const;

  /// Inserts `p` and returns its vertex index. Returns -1 and changes
  /// nothing when `p` is already a vertex, is not finite, or lies outside
  /// the rectangle the constructor covered (the world, or the input's
  /// bounding box). On success `affected` (if non-null) receives the new
  /// vertex and its real neighbours: every vertex whose neighbour set
  /// changed.
  int32_t Insert(const Point& p, std::vector<int32_t>* affected);

  /// Removes the real vertex `v` by re-triangulating its star's hole with
  /// Delaunay ears. Returns false and changes nothing when `v` is not a
  /// live real vertex or no valid ear is left (a stall, expected only on
  /// cocircular input; the caller then rebuilds). On success `affected`
  /// (if non-null) receives v's former real neighbours.
  bool Remove(int32_t v, std::vector<int32_t>* affected);

  /// True when the triangulation satisfies the empty-circumcircle property
  /// for every real triangle against every live real point (O(T*N); tests
  /// only).
  bool VerifyDelaunay() const;

 private:
  struct Tri {
    int32_t v[3];
    int32_t nb[3];
    bool alive = true;
  };

  // A cavity edge (a, b) with the cavity to its left and the triangle
  // across it (-1 for none).
  struct BoundaryEdge {
    int32_t a, b;
    int32_t outside;
  };
  // Insert's working storage, reused across inserts, so an insert
  // allocates only when a vector here or the triangle array outgrows its
  // capacity.
  struct InsertScratch {
    std::vector<int32_t> cavity;
    std::vector<int32_t> stack;
    std::vector<BoundaryEdge> boundary;
    std::vector<int32_t> new_ids;
    // cavity_stamp[t] == stamp marks triangle t as in the current cavity.
    std::vector<uint32_t> cavity_stamp;
    uint32_t stamp = 0;
  };

  void Build(const std::vector<Point>& points, const Rect* world);
  void Insert(int32_t pi, int32_t seed, InsertScratch* scratch);
  int32_t Locate(const Point& p, int32_t hint) const;
  bool InCavity(int32_t tri, const Point& p) const;
  // A live triangle with real vertex `v` as a corner, or -1 when `v` is
  // not a live vertex.
  int32_t TriangleAt(int32_t v) const;
  // Appends the real neighbours u < limit of vertex `v`, whose star holds
  // the live triangle `t0`, in counterclockwise order from t0.
  void AppendStar(int32_t v, int32_t t0, int32_t limit,
                  std::vector<int32_t>* out) const;
  // `p` in predicate coordinates; false when the scale does not round-trip.
  bool ToPredicate(const Point& p, Point* q) const;

  // The coordinates the predicates run on: the caller's points scaled by
  // 2^exponent_. When that exponent is not 0, input_points_ holds the
  // caller's coordinates (points()); otherwise it is empty.
  std::vector<Point> points_;
  std::vector<Point> input_points_;
  int exponent_ = 0;
  size_t num_real_ = 0;
  std::vector<int32_t> insertion_order_;
  int32_t quad_ = 0;  // index of the first super-quad vertex
  // Where Insert accepts points, in predicate coordinates.
  Rect cover_;
  std::vector<Tri> tris_;
  int32_t last_created_ = 0;  // locate hint
  // Slots freed by Remove, reused by Insert. The batch build frees none.
  std::vector<int32_t> free_tris_;
  std::vector<int32_t> free_vertices_;
  InsertScratch scratch_;  // for the public Insert
};

}  // namespace movd

#endif  // MOVD_VORONOI_DELAUNAY_H_
