#ifndef MOVD_VORONOI_WEIGHTED_H_
#define MOVD_VORONOI_WEIGHTED_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/rect.h"

namespace movd {

/// A weighted Voronoi generator with an affine distance deformation:
///   weighted_distance(q) = multiplier * d(q, location) + offset.
/// This subsumes the two classic weighted Voronoi diagrams (paper §5.3,
/// Fig. 5): multiplicative (multiplier = w, offset = 0, Apollonius-circle
/// boundaries) and additive (multiplier = 1, offset = w, hyperbolic
/// boundaries) — and the compositions of ς^t/ς^o the MOLQ engine produces.
struct WeightedSite {
  Point location;
  double multiplier = 1.0;
  double offset = 0.0;
};

/// Convenience constructors for the two classic diagrams.
inline WeightedSite MultiplicativeSite(Point location, double weight) {
  return {location, weight, 0.0};
}
inline WeightedSite AdditiveSite(Point location, double weight) {
  return {location, 1.0, weight};
}

/// The weighted distance used for dominance tests.
double WeightedSiteDistance(const Point& p, const WeightedSite& site);

/// The owner of point `p`: the lowest-index generator achieving the
/// minimum weighted distance. This is THE dominance tie rule of the
/// library — a strict, epsilon-free `<` with the index as tie-breaker, so
/// the owner of a fixed point is a pure function of (p, sites) and cannot
/// flip with the sampling resolution or the builder. Every per-point
/// dominance decision (adaptive leaf classification, the dense-grid audit
/// oracle and its re-checks) must go through this function.
inline size_t BestWeightedSite(const Point& p,
                               const std::vector<WeightedSite>& sites) {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < sites.size(); ++i) {
    const double d =
        sites[i].multiplier * Distance(p, sites[i].location) +
        sites[i].offset;
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

/// Grid-sampled approximation of one weighted Voronoi dominance region.
///
/// Weighted cells are bounded by circular/hyperbolic arcs, can be concave
/// and even disconnected; the paper's MBRB approach (§5.3) is motivated by
/// exactly this. The approximation provides what MBRB consumes — a
/// *conservative* MBR covering every grid cell the generator dominates —
/// plus a convex-hull polygon of the dominated samples for visualisation.
/// `empty` marks generators that dominate no sample.
struct WeightedCellApprox {
  int32_t site = -1;
  /// Conservative MBR of the dominance region. Empty generators keep the
  /// sentinel invalid Rect() (min > max, Rect::Empty() true); consumers
  /// must skip `empty` cells rather than feed the sentinel into MBR
  /// arithmetic.
  Rect mbr;
  Polygon hull;
  /// Tight conservative polygonal cover: outer contours of the
  /// possibly-owned quadtree leaves (the dense oracle: dominated grid cells),
  /// dilated by one grid step and clipped to the construction bounds
  /// (possibly several components; may be concave). Strictly covers the
  /// constructed dominance region, much tighter than `mbr` — this is what
  /// the RRB pipeline uses for weighted diagrams.
  std::vector<Polygon> cover;
  /// Number of effective-lattice leaf cells the cover was built from
  /// (ambiguous boundary leaves count toward every candidate, so the
  /// per-cell counts can sum past the lattice size; the dense oracle
  /// counts the lattice samples the generator dominates).
  size_t sample_count = 0;
  bool empty = true;
};

/// Construction knobs for BuildWeightedCells. `resolution` is the target
/// accuracy: the builder refines to leaf cells of the next power-of-two
/// lattice (EffectiveWeightedResolution).
struct WeightedOptions {
  int resolution = 128;
  /// 1 is serial, 0 means one thread per hardware thread. The result is
  /// identical for every thread count.
  int threads = 1;
};

/// The builder's effective leaf lattice for a target `resolution`: the
/// smallest power of two >= resolution (so leaves align to an exact
/// binary subdivision of `bounds`).
int EffectiveWeightedResolution(int resolution);

/// Builds the approximate weighted Voronoi diagram of `sites` in `bounds`
/// by adaptive quadtree refinement (DESIGN.md §11): classifies quad nodes
/// by interval dominance bounds on the affine weighted distance, recurses
/// only on boundary-ambiguous nodes down to leaves of the
/// EffectiveWeightedResolution lattice, and emits covers of every node a
/// generator might own. The library's one weighted builder; the dense-grid
/// oracle that audits it lives in audit/audit_weighted.h.
///
/// Guarantees, per generator i:
///  - `cover` (and `mbr`) contain the entire dominance region of i under
///    the BestWeightedSite tie rule — a strict superset of the lattice
///    samples the dense oracle assigns to i at the same effective
///    resolution;
///  - covers are clipped to `bounds` (dominance is never reported outside
///    the query domain);
///  - `empty` generators carry the sentinel invalid Rect() as `mbr` and no
///    hull/cover.
std::vector<WeightedCellApprox> BuildWeightedCells(
    const std::vector<WeightedSite>& sites, const Rect& bounds,
    const WeightedOptions& options);

}  // namespace movd

#endif  // MOVD_VORONOI_WEIGHTED_H_
