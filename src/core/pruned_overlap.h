#ifndef MOVD_CORE_PRUNED_OVERLAP_H_
#define MOVD_CORE_PRUNED_OVERLAP_H_

#include <cstddef>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "model/object.h"

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
