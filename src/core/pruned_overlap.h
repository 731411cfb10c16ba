#ifndef MOVD_CORE_PRUNED_OVERLAP_H_
#define MOVD_CORE_PRUNED_OVERLAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "model/object.h"
#include "voronoi/voronoi.h"

namespace movd {

/// The paper's second future-work direction (§8): "pruning the search
/// space by filtering out the impossible POI combinations during the MOVD
/// overlapping."
///
/// Every object combination G gets the lower bound
///
///   lb(G) = sum_i offset_i + max_{i<j} min(a_i, a_j) * d(p_i, p_j)
///
/// on its cost at any location (triangle inequality on the decomposed
/// weighted distances WD = a*d + b). Extending G by further types only
/// adds non-negative terms, so a combination with lb(G) above the
/// threshold τ has no descendant that can win either. Overlap tests each
/// candidate pair's merged combination before clipping it and skips the
/// pair when lb > τ (see Overlap in core/overlap.h). No pruned
/// combination can win or tie the winner, and the optimizer breaks ties by
/// (cost, group), so the pruned overlay's answer is the unpruned one.
///
/// The same bound rules out single objects before their cells are built
/// (KeepSites): an object o of an ordinary set i gets
///
///   objlb(o) = b_o + sum_{j != i} min b_j
///              + max_{j != i, j ordinary} min(a_o, min a_j) * d(o, NN_j(o))
///
/// with NN_j(o) the site of set j nearest to o. Every combination G that
/// holds o has one member g_j per set, and b_{g_j} >= min b_j, a_{g_j} >=
/// min a_j and d(o, g_j) >= d(o, NN_j(o)), so lb(G) >= objlb(o). A site
/// whose objlb exceeds τ therefore appears in no combination the final
/// overlay keeps (the last overlap step prunes every such G, if no earlier
/// one did), and its cell need not be clipped at all.
///
/// SolveMolq builds one bound per solve (BuildMolqOverlay with prune on);
/// SolveMolqTopK, serve's cached
/// overlays and what-if keep unpruned overlays, because they need ranks
/// beyond the first or weights other than the query's.
class CombinationBound {
 public:
  /// Decomposes every object of `query` and seeds the threshold from
  /// SeedUpperBound over `search_space`; `epsilon` is the Fermat–Weber
  /// stopping-rule error bound the optimizer will use.
  CombinationBound(const MolqQuery& query, const Rect& search_space,
                   double epsilon);

  /// τ: pairs whose merged combination has lb > τ are pruned (+inf when
  /// nothing is).
  double threshold() const { return threshold_; }

  /// True when CombinationLowerBound(query, MergePois(x, y)) > threshold(),
  /// bit for bit. Both lists must be sorted and unique. Allocation-free:
  /// it merge-walks the two lists in MergePois order.
  bool Prunes(const std::vector<PoiRef>& x,
              const std::vector<PoiRef>& y) const;

  /// What KeepSites saw: the sites it judged, those it kept, and the moves
  /// of its nearest-site walks.
  struct FilterStats {
    size_t objects = 0;
    size_t kept = 0;
    size_t walk_steps = 0;
  };

  /// The object filter: keep[k] == 0 when site k of the ordinary set `set`
  /// has objlb > τ · (1 + 2^-40), so no combination holding it survives
  /// the overlap. `diagrams[s]` is set s's triangulated diagram
  /// (VoronoiDiagram::Triangulate) for an ordinary set and null for a
  /// weighted one; weighted sets add only their smallest offset. NN_j is
  /// found by VoronoiDiagram::NearestSite, each walk starting where the
  /// previous one on set j ended, with set `set`'s sites in Hilbert order;
  /// where the walk is not exact the set adds no pair term. Keeps every
  /// site when nothing is pruned (τ = +inf) or the query has one set.
  /// Sizes `keep` to the set's sites.
  void KeepSites(int32_t set, std::span<const VoronoiDiagram* const> diagrams,
                 std::vector<uint8_t>* keep, FilterStats* stats) const;

 private:
  struct Term {
    Point location;
    double a;  // WD = a * d + b
    double b;
  };
  const Term& TermOf(const PoiRef& ref) const {
    return terms_[set_begin_[ref.set] + static_cast<size_t>(ref.object)];
  }

  std::vector<Term> terms_;        // every object, set-major
  std::vector<size_t> set_begin_;  // first term of each set
  std::vector<double> set_min_a_;  // smallest a of each set
  double min_offset_sum_ = 0.0;    // sum of each set's smallest b
  double threshold_;
};

/// The seed upper bound U: one pass over a `resolution` x `resolution`
/// probe grid keeps the minimum MWGD and its probe point, the Fermat–Weber
/// problem of that probe's ArgMinGroup is solved once, and U is the
/// smaller of the grid minimum and the MWGD at that solution (clamped into
/// the search space). Always a real MWGD value in the search space, so
/// never below the true optimum.
double SeedUpperBound(const MolqQuery& query, const Rect& search_space,
                      int resolution = 8);

/// The pairwise lower bound lb(G) described above, for an OVR's poi list.
double CombinationLowerBound(const MolqQuery& query,
                             const std::vector<PoiRef>& pois);

}  // namespace movd

#endif  // MOVD_CORE_PRUNED_OVERLAP_H_
