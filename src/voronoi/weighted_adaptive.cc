// Adaptive quadtree construction of approximate weighted Voronoi cells
// (DESIGN.md §11). Instead of sampling every cell of a dense lattice, it
// classifies whole quad nodes with interval dominance bounds on the affine
// weighted distance wd_i(p) = multiplier_i * d(p, site_i) + offset_i:
//
//   over a node rectangle R, d(p, site_i) ranges over
//   [mindist(site_i, R), maxdist(site_i, R)], so wd_i ranges over an
//   interval [lo_i, hi_i] computable in O(1).
//
// At each node the surviving candidate set shrinks: generator i can own a
// point of R under the BestWeightedSite tie rule only if lo_i <= min_j
// hi_j (a generator whose best case loses to someone's worst case loses
// everywhere in R). A node with one candidate is interior to that
// generator's dominance region — recursion stops. Only boundary-ambiguous
// nodes split, down to leaves of the EffectiveWeightedResolution lattice,
// where every surviving candidate records the leaf. The recorded node set
// of generator i therefore contains ALL of i's true dominance region, so
// the extracted covers are conservative by construction — a strict
// superset of what the dense-grid audit oracle marks at the same effective
// resolution (the audit cross-checks exactly that containment).

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/gridcontour.h"
#include "geom/hull.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "voronoi/weighted.h"

namespace movd {
namespace {

// A lattice-aligned square: [x0, x0+size) x [y0, y0+size) in leaf units.
struct QuadNode {
  int x0 = 0;
  int y0 = 0;
  int size = 0;
};

// One generator's recorded (possibly-owned) node.
struct OwnedNode {
  int32_t site;
  QuadNode node;
};

struct LatticeFrame {
  Rect bounds;
  double sx = 0.0;  // world width of one leaf cell
  double sy = 0.0;
  int resolution = 0;  // leaves per axis (power of two)

  double WorldX(int x) const {
    return x == resolution ? bounds.max_x : bounds.min_x + x * sx;
  }
  double WorldY(int y) const {
    return y == resolution ? bounds.max_y : bounds.min_y + y * sy;
  }
  Rect NodeRect(const QuadNode& n) const {
    return Rect(WorldX(n.x0), WorldY(n.y0), WorldX(n.x0 + n.size),
                WorldY(n.y0 + n.size));
  }
};

// Interval bound of wd(p) = m * d(p, site) + off over a rectangle. The
// distance interval is exact up to rounding; a tiny relative slack is
// folded into the comparison at the caller so rounding can only widen the
// candidate set (never prune a true owner).
struct WdInterval {
  double lo;
  double hi;
};

WdInterval WdOverRect(const WeightedSite& s, const Rect& r) {
  const double dmin = std::sqrt(r.MinDistance2(s.location));
  const double cx = std::max(s.location.x - r.min_x, r.max_x - s.location.x);
  const double cy = std::max(s.location.y - r.min_y, r.max_y - s.location.y);
  const double dmax = std::sqrt(cx * cx + cy * cy);
  const double a = s.multiplier * dmin + s.offset;
  const double b = s.multiplier * dmax + s.offset;
  return {std::min(a, b), std::max(a, b)};
}

// Relative slack absorbing the few-ulp rounding of WdOverRect, so interval
// pruning stays conservative w.r.t. the exactly-evaluated tie rule.
inline double PruneSlack(double lo, double min_hi) {
  return 1e-12 * (std::abs(lo) + std::abs(min_hi));
}

// Classifies `node` against `candidates` and either records it (single
// survivor, or leaf) or recurses into its four children with the pruned
// candidate list. Appends to `out` in a deterministic depth-first order.
void Classify(const std::vector<WeightedSite>& sites,
              const LatticeFrame& frame, const QuadNode& node,
              const std::vector<int32_t>& candidates,
              std::vector<OwnedNode>* out) {
  const Rect r = frame.NodeRect(node);
  double min_hi = std::numeric_limits<double>::infinity();
  std::vector<WdInterval> iv(candidates.size());
  for (size_t k = 0; k < candidates.size(); ++k) {
    iv[k] = WdOverRect(sites[candidates[k]], r);
    min_hi = std::min(min_hi, iv[k].hi);
  }
  std::vector<int32_t> kept;
  kept.reserve(candidates.size());
  for (size_t k = 0; k < candidates.size(); ++k) {
    if (iv[k].lo <= min_hi + PruneSlack(iv[k].lo, min_hi)) {
      kept.push_back(candidates[k]);
    }
  }
  MOVD_DCHECK(!kept.empty());
  if (kept.size() == 1) {
    out->push_back({kept[0], node});
    return;
  }
  if (node.size == 1) {
    // Boundary-ambiguous leaf: every surviving candidate might own part of
    // it; record it for all of them (conservative cover).
    for (const int32_t s : kept) out->push_back({s, node});
    return;
  }
  const int half = node.size / 2;
  Classify(sites, frame, {node.x0, node.y0, half}, kept, out);
  Classify(sites, frame, {node.x0 + half, node.y0, half}, kept, out);
  Classify(sites, frame, {node.x0, node.y0 + half, half}, kept, out);
  Classify(sites, frame, {node.x0 + half, node.y0 + half, half}, kept, out);
}

}  // namespace

std::vector<WeightedCellApprox> BuildWeightedCells(
    const std::vector<WeightedSite>& sites, const Rect& bounds,
    const WeightedOptions& options) {
  MOVD_CHECK_MSG(options.resolution > 0,
                 "weighted diagrams need a positive target resolution");
  MOVD_CHECK_MSG(!bounds.Empty(),
                 "weighted diagrams need a non-empty bounding rectangle");
  std::vector<WeightedCellApprox> cells(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    cells[i].site = static_cast<int32_t>(i);
  }
  if (sites.empty()) return cells;

  LatticeFrame frame;
  frame.bounds = bounds;
  frame.resolution = EffectiveWeightedResolution(options.resolution);
  frame.sx = bounds.Width() / frame.resolution;
  frame.sy = bounds.Height() / frame.resolution;

  const Trace::Context trace_ctx = Trace::CaptureContext();

  // Seed the recursion at a fixed shallow frontier (independent of the
  // thread count, so the classification work list — and with it every
  // output byte — is identical for any `threads`). Splitting an
  // already-interior node only fragments it into interior children, which
  // the per-site rasterisation below re-merges, so forcing the first few
  // levels costs nothing but yields parallelisable subtrees.
  const int frontier_size = std::max(1, frame.resolution / 8);
  std::vector<QuadNode> frontier;
  for (int y0 = 0; y0 < frame.resolution; y0 += frontier_size) {
    for (int x0 = 0; x0 < frame.resolution; x0 += frontier_size) {
      frontier.push_back({x0, y0, frontier_size});
    }
  }
  std::vector<int32_t> all(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) all[i] = static_cast<int32_t>(i);

  // Classify each frontier subtree into its own slot; concatenating the
  // slots in frontier order keeps the record list deterministic.
  std::vector<std::vector<OwnedNode>> records(frontier.size());
  ParallelFor(options.threads, frontier.size(), [&](size_t f) {
    TraceContextScope trace_scope(trace_ctx);
    TRACE_SPAN("weighted_adaptive_classify");
    Classify(sites, frame, frontier[f], all, &records[f]);
  });

  std::vector<std::vector<QuadNode>> nodes_of(sites.size());
  for (const std::vector<OwnedNode>& slot : records) {
    for (const OwnedNode& rec : slot) {
      nodes_of[rec.site].push_back(rec.node);
    }
  }

  // Per-site cover extraction, independent across sites. The node set is
  // rasterised onto a local leaf-unit mask padded by one cell (clamped to
  // the lattice), so the one-cell dilation has room everywhere and the
  // dilated contours stay clipped to `bounds` by construction.
  ParallelFor(options.threads, sites.size(), [&](size_t i) {
    TraceContextScope trace_scope(trace_ctx);
    TraceSpan span("weighted_adaptive_cover");
    WeightedCellApprox& cell = cells[i];
    const std::vector<QuadNode>& nodes = nodes_of[i];
    cell.empty = nodes.empty();
    size_t leaves = 0;
    for (const QuadNode& n : nodes) {
      leaves += static_cast<size_t>(n.size) * n.size;
    }
    cell.sample_count = leaves;
    span.Counter("cells_covered", static_cast<int64_t>(leaves));
    if (cell.empty) return;  // mbr stays the sentinel invalid Rect()

    int lx0 = frame.resolution, ly0 = frame.resolution, lx1 = 0, ly1 = 0;
    for (const QuadNode& n : nodes) {
      lx0 = std::min(lx0, n.x0);
      ly0 = std::min(ly0, n.y0);
      lx1 = std::max(lx1, n.x0 + n.size);
      ly1 = std::max(ly1, n.y0 + n.size);
    }
    // Pad by one leaf cell for the dilation, clamped to the lattice.
    lx0 = std::max(0, lx0 - 1);
    ly0 = std::max(0, ly0 - 1);
    lx1 = std::min(frame.resolution, lx1 + 1);
    ly1 = std::min(frame.resolution, ly1 + 1);
    const int w = lx1 - lx0;
    const int h = ly1 - ly0;
    std::vector<uint8_t> mask(static_cast<size_t>(w) * h, 0);
    for (const QuadNode& n : nodes) {
      for (int y = n.y0; y < n.y0 + n.size; ++y) {
        uint8_t* row = mask.data() + static_cast<size_t>(y - ly0) * w;
        std::fill(row + (n.x0 - lx0), row + (n.x0 - lx0 + n.size),
                  uint8_t{1});
      }
    }
    const Rect local(frame.WorldX(lx0), frame.WorldY(ly0), frame.WorldX(lx1),
                     frame.WorldY(ly1));
    cell.cover = ExtractOuterContours(mask, w, h, local, /*dilate=*/true);
    cell.mbr = Rect();
    for (const Polygon& piece : cell.cover) cell.mbr.Expand(piece.Bbox());
    // Hull of the cover vertices, for visualisation and MBR
    // cross-checks.
    std::vector<Point> corners;
    for (const Polygon& piece : cell.cover) {
      corners.insert(corners.end(), piece.vertices().begin(),
                     piece.vertices().end());
    }
    const ConvexPolygon hull = ConvexHull(corners);
    if (!hull.Empty()) cell.hull = Polygon(hull.vertices());
  });
  return cells;
}

}  // namespace movd
