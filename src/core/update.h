#ifndef MOVD_CORE_UPDATE_H_
#define MOVD_CORE_UPDATE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "model/movd_model.h"
#include "model/object.h"
#include "model/update_model.h"
#include "voronoi/delaunay.h"

namespace movd {

/// What one OrdinaryLayerState::Apply did.
struct LayerPatchStats {
  size_t recomputed_cells = 0;  ///< cells re-clipped by the mutation
  size_t total_cells = 0;       ///< distinct sites after the mutation
};

/// A live mirror of one ordinary (exact-Voronoi) layer of a query
/// (DESIGN.md §14): the layer's Delaunay triangulation over its distinct
/// site locations, kept current by Delaunay::Insert/Remove, plus the
/// canonical clipped cell of every site. A mutation re-clips exactly the
/// cells whose Delaunay neighbour sets changed. Materialize() is
/// bit-identical to BuildBasicMovd's ordinary route, in object order,
/// because a cell's bytes depend only on (site, LessXY-sorted neighbour
/// set, world) and a triangulation of points in general position is
/// unique.
///
/// The layer must satisfy OrdinaryDiagramSuffices before and after every
/// mutation; the caller routes other layers to a full rebuild.
class OrdinaryLayerState {
 public:
  /// Mirrors layer `layer` of `query`, whose cells are clipped to `world`.
  OrdinaryLayerState(const MolqQuery& query, int32_t layer, const Rect& world);

  /// Applies `mut` the way the serve engine applies it to the query: an
  /// insert appends an object, a delete removes the first object whose
  /// location is bit-identical. Returns false when the mirror cannot
  /// follow: a delete names no object, an insert falls outside the
  /// triangulated world, or the star-hole re-triangulation stalls. The
  /// mirror is then stale and the caller rebuilds it from the mutated
  /// query.
  bool Apply(const SiteMutation& mut, LayerPatchStats* stats);

  /// The layer's basic MOVD, as BuildBasicMovd would build it.
  Movd Materialize() const;

  /// Objects in the layer, duplicates of one location included.
  size_t num_objects() const { return objects_.size(); }

 private:
  struct Site {
    int32_t vertex = -1;  // in dt_
    int32_t objects = 0;  // objects at this location
    int32_t first = -1;   // lowest index of those objects in objects_
    Ovr cell;             // pois filled by Materialize
  };
  struct ByLessXY {
    bool operator()(const Point& a, const Point& b) const {
      return LessXY(a, b);
    }
  };

  // The canonical cell of dt_ vertex `vertex` with the given real
  // neighbours; a default Ovr when the cell misses the world.
  Ovr Cell(int32_t vertex, std::span<const int32_t> neighbors) const;
  // Re-clips the cells of the given dt_ vertices.
  void Recompute(const std::vector<int32_t>& vertices);

  int32_t layer_;
  Rect world_;
  std::vector<Point> objects_;  // object locations, in object order
  std::map<Point, Site, ByLessXY> sites_;
  Delaunay dt_;
};

/// What one PatchOverlay did.
struct OverlayPatchStats {
  size_t retained_ovrs = 0;    ///< cached OVRs kept (objects renumbered)
  size_t recomputed_ovrs = 0;  ///< OVRs the restricted re-fold produced
};

/// Patches `old_overlay`, the fold OverlapAll(basic(layers[0]), …) in
/// `mode` over ascending `layers` (so in strictly canonical order, see
/// core/overlap.h), after one mutation of layer `mutated_layer` changed
/// its basic MOVD from `old_basic` to `new_basic`.
/// `deleted_object` is the deleted object's index before the mutation, or
/// -1 for an insert; later objects of the layer shift down by one.
/// `basic_of(l)` returns the (unchanged) basic of every other layer, or
/// null when it is unavailable.
///
/// A new mutated-layer cell is unchanged when the old basic holds a cell
/// of the same object (after renumbering) with bit-identical geometry.
/// Combinations of unchanged cells are kept. Only the changed cells are
/// re-folded, by the same OverlapAll, with each peer layer cut to the
/// cells whose MBR meets the changed cells' bounding box; no combination
/// with a changed cell can involve any other peer cell. Every
/// combination's bits are a function of its cells alone (Overlap clips
/// each pair in an order fixed by the pair's MBRs), and the re-fold comes
/// out canonical like any fold, so merging it into the kept combinations
/// makes `*out` bit-identical to the full fold over the new basics.
///
/// Returns false, leaving `*out` unspecified, when `mutated_layer` is not
/// in `layers`, an old OVR has no cell of it, or a needed peer basic is
/// null; the caller then drops the cached overlay.
bool PatchOverlay(const Movd& old_overlay, const std::vector<int32_t>& layers,
                  int32_t mutated_layer, const Movd& old_basic,
                  const Movd& new_basic,
                  const std::function<const Movd*(int32_t)>& basic_of,
                  BoundaryMode mode, int32_t deleted_object, Movd* out,
                  OverlayPatchStats* stats);

}  // namespace movd

#endif  // MOVD_CORE_UPDATE_H_
