#include "model/movd_model.h"

#include <utility>

#include "geom/gridcontour.h"
#include "util/check.h"

namespace movd {

size_t Movd::MemoryBytes(BoundaryMode mode) const {
  size_t bytes = 0;
  for (const Ovr& ovr : ovrs) {
    if (mode == BoundaryMode::kRealRegion) {
      bytes += ovr.region.VertexCount() * sizeof(Point);
    } else {
      bytes += 2 * sizeof(Point);  // an MBR is two corner points
    }
    bytes += ovr.pois.size() * sizeof(PoiRef);
  }
  return bytes;
}

size_t Movd::VertexCount() const {
  size_t n = 0;
  for (const Ovr& ovr : ovrs) n += ovr.region.VertexCount();
  return n;
}

Movd IdentityMovd(const Rect& search_space) {
  Movd movd;
  Ovr ovr;
  ovr.region = Region::FromRect(search_space);
  ovr.mbr = search_space;
  movd.ovrs.push_back(std::move(ovr));
  return movd;
}

Movd MovdFromVoronoi(VoronoiDiagram diagram, int32_t set,
                     const std::vector<int32_t>& object_of_site) {
  return MovdFromCells(std::move(diagram).TakeCells(), set, object_of_site);
}

Movd MovdFromCells(std::vector<VoronoiCell> cells, int32_t set,
                   const std::vector<int32_t>& object_of_site) {
  MOVD_CHECK(object_of_site.size() == cells.size());
  Movd movd;
  movd.ovrs.reserve(cells.size());
  for (VoronoiCell& cell : cells) {
    if (cell.region.Empty()) continue;  // MOVDs hold no empty regions
    Ovr& ovr = movd.ovrs.emplace_back();
    ovr.mbr = cell.region.Bbox();
    ovr.region = Region::FromConvex(std::move(cell.region));
    ovr.pois = {{set, object_of_site[cell.site]}};
  }
  return movd;
}

Movd MovdFromWeightedApprox(const std::vector<WeightedCellApprox>& cells,
                            int32_t set,
                            const std::vector<int32_t>& object_of_site,
                            WeightedCoverStats* stats) {
  MOVD_CHECK(object_of_site.size() == cells.size());
  Movd movd;
  WeightedCoverStats counted;
  for (const WeightedCellApprox& cell : cells) {
    // Empty generators carry the sentinel invalid Rect() as their MBR; a
    // default-constructed Rect fed into MBRB prefiltering would silently
    // drop every intersection test, so skip them (and any cell whose MBR
    // is degenerate) before they can become OVRs.
    if (cell.empty || cell.mbr.Empty()) continue;
    Ovr ovr;
    ovr.mbr = cell.mbr;
    // Weighted cells may be concave or disconnected. RRB uses the tight
    // dilated grid-contour cover when available; conservative covers keep
    // correctness (any truly co-occurring combination still pairs up, and
    // scanning extra combinations cannot change the global optimum). Each
    // lattice ring splits exactly into rectangles (DESIGN.md §11); the
    // area guard catches a ring that does not (one with an edge that is
    // not axis-parallel) and falls back to the MBR.
    if (!cell.cover.empty()) {
      std::vector<ConvexPolygon> pieces;
      double ring_area = 0.0;
      for (const Polygon& ring : cell.cover) {
        ring_area += ring.SignedArea();
        for (const Rect& r : RectilinearSlabs(ring)) {
          pieces.push_back(ConvexPolygon::FromRect(r));
        }
      }
      Region region = Region::FromPieces(std::move(pieces));
      if (region.Area() >= 0.999 * ring_area) {
        ovr.region = std::move(region);
      } else {
        ovr.region = Region::FromRect(cell.mbr);
        ++counted.mbr_fallbacks;
      }
    } else {
      ovr.region = Region::FromRect(cell.mbr);
    }
    counted.pieces += ovr.region.pieces().size();
    ovr.pois = {{set, object_of_site[cell.site]}};
    movd.ovrs.push_back(std::move(ovr));
  }
  if (stats != nullptr) {
    stats->pieces += counted.pieces;
    stats->mbr_fallbacks += counted.mbr_fallbacks;
  }
  return movd;
}

}  // namespace movd
