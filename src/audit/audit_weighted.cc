#include "audit/audit_weighted.h"

#include <algorithm>
#include <limits>

#include "audit/audit_polygon.h"
#include "geom/gridcontour.h"
#include "geom/hull.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

// The dense lattice the oracle samples and the adaptive replay re-samples:
// cell (gx, gy) of a resolution x resolution grid over `bounds`, stood for
// by its centre.
struct DenseLattice {
  DenseLattice(const Rect& b, int r)
      : bounds(b), resolution(r), step_x(b.Width() / r),
        step_y(b.Height() / r) {}

  Point Centre(int gx, int gy) const {
    return {bounds.min_x + (gx + 0.5) * step_x,
            bounds.min_y + (gy + 0.5) * step_y};
  }

  // The owners of row gy's centres under the shared tie rule (strict <,
  // lowest index): the owner of a centre is a pure function of the point,
  // never of the grid it was sampled on. Rows are independent.
  void OwnRow(const std::vector<WeightedSite>& sites, int gy,
              int32_t* owner) const {
    for (int gx = 0; gx < resolution; ++gx) {
      owner[gx] =
          static_cast<int32_t>(BestWeightedSite(Centre(gx, gy), sites));
    }
  }

  Rect bounds;
  int resolution;
  double step_x;
  double step_y;
};

// Structural invariants shared by both builders: cell/site
// alignment, empty-flag consistency (empty cells keep the sentinel invalid
// Rect and no hull/cover), the MBR containment chain, and simple-CCW cover
// rings. Returns false when the cell vector does not even line up with the
// sites (the per-cell checks would be meaningless).
bool StructuralChecks(const std::vector<WeightedSite>& sites,
                      const std::vector<WeightedCellApprox>& cells,
                      const Rect& bounds, AuditReport* report) {
  report->NoteChecks(1);
  if (cells.size() != sites.size()) {
    report->Add(AuditKind::kWeightedCellCount,
                AuditStrFormat("%zu cells for %zu generators", cells.size(),
                               sites.size()),
                {static_cast<int64_t>(cells.size()),
                 static_cast<int64_t>(sites.size())});
    return false;
  }

  const double slack = 1e-9 * std::max(bounds.Width(), bounds.Height());
  const Rect slack_bounds(bounds.min_x - slack, bounds.min_y - slack,
                          bounds.max_x + slack, bounds.max_y + slack);

  for (size_t i = 0; i < cells.size(); ++i) {
    const WeightedCellApprox& cell = cells[i];

    report->NoteChecks(2);
    if (cell.site != static_cast<int32_t>(i)) {
      report->Add(AuditKind::kWeightedCellCount,
                  AuditStrFormat("cell %zu tagged with generator %d", i,
                                 cell.site),
                  {static_cast<int64_t>(i), cell.site});
    }
    if (cell.empty != (cell.sample_count == 0)) {
      report->Add(AuditKind::kWeightedEmptyFlag,
                  AuditStrFormat("cell %zu: empty=%d but sample_count=%zu",
                                 i, cell.empty ? 1 : 0, cell.sample_count),
                  {static_cast<int64_t>(i),
                   static_cast<int64_t>(cell.sample_count)});
    }
    if (cell.empty) {
      report->NoteChecks(1);
      if (!cell.mbr.Empty() || !cell.hull.Empty() || !cell.cover.empty()) {
        report->Add(AuditKind::kWeightedEmptyFlag,
                    AuditStrFormat("empty cell %zu still carries an MBR, "
                                   "hull, or cover (the MBR must stay the "
                                   "sentinel invalid Rect)",
                                   i),
                    {static_cast<int64_t>(i)});
      }
      continue;
    }

    // MBR containment chain: hull bbox and cover bboxes inside the MBR,
    // MBR inside the bounds.
    report->NoteChecks(2);
    if (cell.mbr.Empty()) {
      report->Add(AuditKind::kWeightedContainment,
                  AuditStrFormat("non-empty cell %zu has an empty MBR", i),
                  {static_cast<int64_t>(i)});
      continue;
    }
    if (!slack_bounds.Contains(cell.mbr)) {
      report->Add(AuditKind::kWeightedContainment,
                  AuditStrFormat("cell %zu MBR [%g, %g]x[%g, %g] escapes "
                                 "the bounds",
                                 i, cell.mbr.min_x, cell.mbr.max_x,
                                 cell.mbr.min_y, cell.mbr.max_y),
                  {static_cast<int64_t>(i)});
    }
    if (!cell.hull.Empty()) {
      report->NoteChecks(1);
      if (!cell.mbr.Contains(cell.hull.Bbox())) {
        report->Add(AuditKind::kWeightedContainment,
                    AuditStrFormat("cell %zu hull bbox escapes its MBR", i),
                    {static_cast<int64_t>(i)});
      }
    }
    for (size_t r = 0; r < cell.cover.size(); ++r) {
      report->NoteChecks(1);
      if (!cell.mbr.Contains(cell.cover[r].Bbox())) {
        report->Add(AuditKind::kWeightedContainment,
                    AuditStrFormat("cell %zu cover ring %zu escapes its "
                                   "MBR",
                                   i, r),
                    {static_cast<int64_t>(i), static_cast<int64_t>(r)});
      }
      AuditReport ring = AuditPolygon(cell.cover[r],
                                      static_cast<int64_t>(i));
      for (const AuditViolation& v : ring.violations()) {
        report->Add(AuditKind::kWeightedCoverRing,
                    AuditStrFormat("cell %zu cover ring %zu: %s", i, r,
                                   v.message.c_str()),
                    v.indices, v.witness);
      }
      report->NoteChecks(ring.checks());
    }
  }
  return true;
}

}  // namespace

std::vector<WeightedCellApprox> ApproximateWeightedVoronoi(
    const std::vector<WeightedSite>& sites, const Rect& bounds,
    int resolution, int threads) {
  MOVD_CHECK_MSG(resolution > 0, "the dominance grid needs >= 1 cell");
  MOVD_CHECK_MSG(!bounds.Empty(),
                 "weighted diagrams need a non-empty bounding rectangle");
  std::vector<WeightedCellApprox> cells(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    cells[i].site = static_cast<int32_t>(i);
  }
  if (sites.empty()) return cells;

  const DenseLattice lattice(bounds, resolution);
  std::vector<int32_t> owner(static_cast<size_t>(resolution) * resolution);
  ParallelFor(threads, static_cast<size_t>(resolution), [&](size_t row) {
    lattice.OwnRow(sites, static_cast<int>(row),
                   &owner[row * static_cast<size_t>(resolution)]);
  });

  // Gather each site's dominated sample centers in row-major order.
  std::vector<std::vector<Point>> samples(sites.size());
  for (int gy = 0; gy < resolution; ++gy) {
    for (int gx = 0; gx < resolution; ++gx) {
      const int32_t o = owner[static_cast<size_t>(gy) * resolution + gx];
      samples[o].push_back(lattice.Centre(gx, gy));
    }
  }

  // Per-site cover extraction: each task writes only cells[i] and reads
  // the shared owner grid, so sites are independent.
  ParallelFor(threads, sites.size(), [&](size_t i) {
    WeightedCellApprox& cell = cells[i];
    cell.sample_count = samples[i].size();
    cell.empty = samples[i].empty();
    if (cell.empty) return;
    Rect mbr;
    for (const Point& p : samples[i]) mbr.Expand(p);
    // A dominated sample is the center of a grid cell.
    cell.mbr = Rect(mbr.min_x - 0.5 * lattice.step_x,
                    mbr.min_y - 0.5 * lattice.step_y,
                    mbr.max_x + 0.5 * lattice.step_x,
                    mbr.max_y + 0.5 * lattice.step_y);
    const ConvexPolygon hull = ConvexHull(samples[i]);
    if (!hull.Empty()) cell.hull = Polygon(hull.vertices());
    std::vector<uint8_t> cell_mask(owner.size());
    for (size_t c = 0; c < owner.size(); ++c) {
      cell_mask[c] = owner[c] == static_cast<int32_t>(i) ? 1 : 0;
    }
    cell.cover = ExtractOuterContours(cell_mask, resolution, resolution,
                                      bounds, /*dilate=*/true);
    // The dilation can push the cover past the half-step MBR; keep the
    // MBR a cover of both.
    for (const Polygon& piece : cell.cover) {
      cell.mbr.Expand(piece.Bbox());
    }
    // The half-step expansion can land an ulp past the domain edge; the
    // dominance region lives inside `bounds` by definition, so clipping
    // the MBR to it loses nothing.
    cell.mbr = cell.mbr.Intersect(bounds);
  });
  return cells;
}

AuditReport AuditWeightedCells(const std::vector<WeightedSite>& sites,
                               const std::vector<WeightedCellApprox>& cells,
                               const Rect& bounds, int resolution) {
  AuditReport report;
  if (!StructuralChecks(sites, cells, bounds, &report)) return report;
  if (sites.empty()) return report;

  size_t total_samples = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const WeightedCellApprox& cell = cells[i];
    total_samples += cell.sample_count;
    if (cell.empty) continue;

    // Dominance re-check at every hull vertex: the hull is built from
    // dominated sample centers, so replaying the owner rule — the shared
    // BestWeightedSite, bit-exact with the sampler's arithmetic — must
    // pick this generator. A hull vertex owned by someone else means the
    // cell leaks outside its dominance region.
    for (size_t k = 0; k < cell.hull.vertices().size(); ++k) {
      report.NoteChecks(1);
      const Point& v = cell.hull.vertices()[k];
      const size_t owner = BestWeightedSite(v, sites);
      if (owner != i) {
        report.Add(AuditKind::kWeightedDominance,
                   AuditStrFormat("cell %zu hull vertex %zu (%g, %g) is "
                                  "dominated by generator %zu",
                                  i, k, v.x, v.y, owner),
                   {static_cast<int64_t>(i), static_cast<int64_t>(k),
                    static_cast<int64_t>(owner)},
                   {v});
      }
    }
  }

  report.NoteChecks(1);
  const size_t want =
      static_cast<size_t>(resolution) * static_cast<size_t>(resolution);
  if (total_samples != want) {
    report.Add(AuditKind::kWeightedSampleCount,
               AuditStrFormat("sample counts sum to %zu over a %d x %d grid "
                              "(want %zu)",
                              total_samples, resolution, resolution, want),
               {static_cast<int64_t>(total_samples),
                static_cast<int64_t>(want)});
  }

  return report;
}

AuditReport AuditAdaptiveWeightedCells(
    const std::vector<WeightedSite>& sites,
    const std::vector<WeightedCellApprox>& cells, const Rect& bounds,
    int resolution) {
  AuditReport report;
  if (!StructuralChecks(sites, cells, bounds, &report)) return report;
  if (sites.empty()) return report;

  // Cross-builder dominance containment: replay the oracle's lattice at
  // the adaptive builder's effective resolution and demand every
  // dominated sample center inside its owner's cover. This is the
  // "adaptive strictly contains the dense-grid dominated set" guarantee;
  // it also pins the tie rule to one shared implementation — if any
  // caller diverged from BestWeightedSite, the replay would flag the
  // flipped boundary samples here.
  const DenseLattice lattice(bounds, EffectiveWeightedResolution(resolution));
  std::vector<int32_t> owners(static_cast<size_t>(lattice.resolution));
  for (int gy = 0; gy < lattice.resolution; ++gy) {
    lattice.OwnRow(sites, gy, owners.data());
    for (int gx = 0; gx < lattice.resolution; ++gx) {
      const Point c = lattice.Centre(gx, gy);
      const auto owner = static_cast<size_t>(owners[gx]);
      const WeightedCellApprox& cell = cells[owner];
      report.NoteChecks(1);
      if (cell.empty || !cell.mbr.Contains(c)) {
        report.Add(AuditKind::kWeightedCoverMiss,
                   AuditStrFormat("dominated sample (%g, %g) of generator "
                                  "%zu outside the cell MBR",
                                  c.x, c.y, owner),
                   {static_cast<int64_t>(owner), gx, gy}, {c});
        continue;
      }
      bool covered = false;
      for (const Polygon& ring : cell.cover) {
        if (ring.Contains(c)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        report.Add(AuditKind::kWeightedCoverMiss,
                   AuditStrFormat("dominated sample (%g, %g) of generator "
                                  "%zu outside every cover ring",
                                  c.x, c.y, owner),
                   {static_cast<int64_t>(owner), gx, gy}, {c});
      }
    }
  }

  return report;
}

}  // namespace movd
