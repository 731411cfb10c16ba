#include "core/update.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "core/overlap.h"
#include "util/check.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

bool SameBits(const Point& a, const Point& b) {
  return std::memcmp(&a, &b, sizeof(Point)) == 0;
}

std::vector<Point> Locations(const ObjectSet& set) {
  std::vector<Point> out;
  out.reserve(set.objects.size());
  for (const SpatialObject& obj : set.objects) out.push_back(obj.location);
  return out;
}

}  // namespace

OrdinaryLayerState::OrdinaryLayerState(const MolqQuery& query, int32_t layer,
                                       const Rect& world)
    : layer_(layer),
      world_(world),
      objects_(Locations(query.sets.at(layer))),
      dt_(objects_, world) {
  // The constructor's points are the distinct sites at indices 0..n-1, in
  // LessXY order, so each ascending table row is the canonical clip order.
  const NeighborTable table = dt_.Adjacency();
  for (size_t v = 0; v < table.size(); ++v) {
    const auto vertex = static_cast<int32_t>(v);
    Site& site = sites_[dt_.points()[v]];
    site.vertex = vertex;
    site.cell = Cell(vertex, table.of(vertex));
  }
  for (size_t i = 0; i < objects_.size(); ++i) {
    Site& site = sites_.at(objects_[i]);
    if (site.objects++ == 0) site.first = static_cast<int32_t>(i);
  }
}

Ovr OrdinaryLayerState::Cell(int32_t vertex,
                             std::span<const int32_t> neighbors) const {
  ConvexPolygon region =
      CanonicalVoronoiCell(dt_.points(), vertex, neighbors, world_);
  Ovr cell;
  if (region.Empty()) return cell;  // MovdFromVoronoi drops empty cells
  cell.mbr = region.Bbox();
  cell.region = Region::FromConvex(std::move(region));
  return cell;
}

void OrdinaryLayerState::Recompute(const std::vector<int32_t>& vertices) {
  const std::vector<Point>& points = dt_.points();
  for (const int32_t v : vertices) {
    // Inserted vertices break the index order, so sort by location.
    std::vector<int32_t> neighbors = dt_.Neighbors(v);
    std::sort(neighbors.begin(), neighbors.end(), [&](int32_t a, int32_t b) {
      return LessXY(points[a], points[b]);
    });
    sites_.at(points[v]).cell = Cell(v, neighbors);
  }
}

bool OrdinaryLayerState::Apply(const SiteMutation& mut,
                               LayerPatchStats* stats) {
  stats->recomputed_cells = 0;
  std::vector<int32_t> affected;
  if (mut.kind == MutationKind::kInsert) {
    const auto it = sites_.find(mut.location);
    if (it != sites_.end()) {
      // A second object at a live site: no cell changes.
      ++it->second.objects;
    } else {
      const int32_t v = dt_.Insert(mut.location, &affected);
      if (v < 0) return false;
      Site& site = sites_[mut.location];
      site.vertex = v;
      site.objects = 1;
      site.first = static_cast<int32_t>(objects_.size());
      Recompute(affected);
    }
    objects_.push_back(mut.location);
  } else {
    const auto object = std::find_if(
        objects_.begin(), objects_.end(),
        [&](const Point& p) { return SameBits(p, mut.location); });
    if (object == objects_.end()) return false;
    const auto deleted = static_cast<int32_t>(object - objects_.begin());
    const auto it = sites_.find(*object);
    MOVD_CHECK(it != sites_.end());
    if (it->second.objects > 1) {
      --it->second.objects;
      if (it->second.first == deleted) {
        // The site survives and maps to its next object (renumbered below).
        const auto next = std::find_if(
            object + 1, objects_.end(), [&](const Point& p) {
              return !LessXY(p, *object) && !LessXY(*object, p);
            });
        MOVD_CHECK(next != objects_.end());
        it->second.first = static_cast<int32_t>(next - objects_.begin());
      }
    } else {
      if (!dt_.Remove(it->second.vertex, &affected)) return false;
      sites_.erase(it);
      Recompute(affected);
    }
    objects_.erase(object);
    for (auto& [location, site] : sites_) {
      if (site.first > deleted) --site.first;
    }
  }
  stats->recomputed_cells = affected.size();
  stats->total_cells = sites_.size();
  return true;
}

Movd OrdinaryLayerState::Materialize() const {
  // Each site maps to the first object at its location, as in
  // BuildBasicMovd, and the cells come in object order: one counting pass
  // places each site at its first object.
  std::vector<const Site*> site_of(objects_.size(), nullptr);
  for (const auto& [location, site] : sites_) {
    site_of[static_cast<size_t>(site.first)] = &site;
  }
  Movd movd;
  movd.ovrs.reserve(sites_.size());
  for (size_t object = 0; object < site_of.size(); ++object) {
    const Site* site = site_of[object];
    if (site == nullptr || site->cell.region.Empty()) continue;
    Ovr& ovr = movd.ovrs.emplace_back(site->cell);
    ovr.pois = {{layer_, site->first}};
  }
  return movd;
}

bool PatchOverlay(const Movd& old_overlay, const std::vector<int32_t>& layers,
                  int32_t mutated_layer, const Movd& old_basic,
                  const Movd& new_basic,
                  const std::function<const Movd*(int32_t)>& basic_of,
                  BoundaryMode mode, int32_t deleted_object, Movd* out,
                  OverlayPatchStats* stats) {
  *stats = OverlayPatchStats();
  if (std::find(layers.begin(), layers.end(), mutated_layer) ==
      layers.end()) {
    return false;
  }
  // An object's index after the mutation; -1 for the deleted one.
  const auto renumber = [&](int32_t object) {
    if (deleted_object < 0 || object < deleted_object) return object;
    return object == deleted_object ? -1 : object - 1;
  };
  // Basic MOVDs hold one OVR per object that owns a non-empty cell, so
  // cells are indexed by their (renumbered) object.
  const auto object_of = [](const Ovr& cell) {
    return static_cast<size_t>(cell.pois.front().object);
  };
  size_t objects = 0;
  for (const Ovr& ovr : new_basic.ovrs) {
    objects = std::max(objects, object_of(ovr) + 1);
  }
  std::vector<const Ovr*> old_cell_of(objects, nullptr);
  for (const Ovr& ovr : old_basic.ovrs) {
    const int32_t object = renumber(ovr.pois.front().object);
    if (object >= 0 && static_cast<size_t>(object) < objects) {
      old_cell_of[static_cast<size_t>(object)] = &ovr;
    }
  }
  // unchanged[j]: new object j owns a cell bit-identical to its old one.
  std::vector<bool> unchanged(objects, false);
  Movd changed;
  Rect dirty;
  for (const Ovr& ovr : new_basic.ovrs) {
    const Ovr* old = old_cell_of[object_of(ovr)];
    if (old != nullptr && OvrGeometryBitIdentical(*old, ovr)) {
      unchanged[object_of(ovr)] = true;
    } else {
      changed.ovrs.push_back(ovr);
      dirty.Expand(ovr.mbr);
    }
  }

  // Keep every cached combination whose mutated-layer cell is unchanged.
  // Renumbering only shifts later objects down by one, so the kept
  // combinations stay in canonical order.
  out->ovrs.clear();
  out->ovrs.reserve(old_overlay.ovrs.size() + changed.ovrs.size());
  for (const Ovr& ovr : old_overlay.ovrs) {
    const auto poi = std::find_if(
        ovr.pois.begin(), ovr.pois.end(),
        [&](const PoiRef& ref) { return ref.set == mutated_layer; });
    if (poi == ovr.pois.end()) return false;
    const int32_t object = renumber(poi->object);
    if (object < 0 || static_cast<size_t>(object) >= objects ||
        !unchanged[static_cast<size_t>(object)]) {
      continue;
    }
    Ovr& kept = out->ovrs.emplace_back(ovr);
    kept.pois[static_cast<size_t>(poi - ovr.pois.begin())].object = object;
  }
  stats->retained_ovrs = out->ovrs.size();

  // Re-fold the changed cells against the peer cells that can meet them.
  if (!changed.ovrs.empty()) {
    std::vector<Movd> inputs(layers.size());
    for (size_t i = 0; i < layers.size(); ++i) {
      if (layers[i] == mutated_layer) {
        inputs[i] = std::move(changed);
        continue;
      }
      const Movd* basic = basic_of(layers[i]);
      if (basic == nullptr) return false;
      for (const Ovr& ovr : basic->ovrs) {
        if (ovr.mbr.Intersects(dirty)) inputs[i].ovrs.push_back(ovr);
      }
    }
    // Each input is canonical and the layers ascend, so the re-fold comes
    // out in canonical order (core/overlap.h) and merges in place.
    Movd acc = OverlapAll(inputs, mode);
    stats->recomputed_ovrs = acc.ovrs.size();
    const auto middle = static_cast<std::ptrdiff_t>(out->ovrs.size());
    std::move(acc.ovrs.begin(), acc.ovrs.end(),
              std::back_inserter(out->ovrs));
    std::inplace_merge(out->ovrs.begin(), out->ovrs.begin() + middle,
                       out->ovrs.end(), CanonicalOvrLess);
  }
  MOVD_DCHECK(std::is_sorted(out->ovrs.begin(), out->ovrs.end(),
                             CanonicalOvrLess));
  return true;
}

}  // namespace movd
