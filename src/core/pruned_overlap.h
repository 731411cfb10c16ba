#ifndef MOVD_CORE_PRUNED_OVERLAP_H_
#define MOVD_CORE_PRUNED_OVERLAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "model/object.h"
#include "voronoi/site_grid.h"

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
/// with NN_j(o) the site of set j nearest to o (SiteGrid::Nearest, exact).
/// Every combination G that
/// holds o has one member g_j per set, and b_{g_j} >= min b_j, a_{g_j} >=
/// min a_j and d(o, g_j) >= d(o, NN_j(o)), so lb(G) >= objlb(o). A site
/// whose objlb exceeds τ therefore appears in no combination the final
/// overlay keeps (the last overlap step prunes every such G, if no earlier
/// one did), and its cell need not be clipped at all.
///
/// The threshold τ = (1 + ε) · U · (1 + 2^-40) rests on an upper bound U
/// on the optimum. In an all-ordinary query U comes from the filter's own
/// nearest-site queries: one grid pass per ordinary set visits its sites
/// in bucket order, finds the nearest site of every other ordinary set on
/// that set's SiteGrid, stores the site's objlb, and prices every site
/// inside the search space whose queries are exact at its nearest group
/// (MWGD at the site, the terms summed in set order). A site whose partial
/// objlb already exceeds (1 + ε) · p · (1 + 2^-40)^2, with p the pass's
/// least price so far, stops there unpriced: p >= U, so KeepSites drops it
/// whatever its other terms, and its own price (at least its objlb) could
/// not have been the least. A query with a weighted set, or one where no site
/// got a price, takes the least brute-force MWGD over the nodes of an 8×8
/// probe grid instead. U is the least price, lowered by a few rounds of a
/// Fermat–Weber solve of the current group alternating with the group
/// nearest to that solution. Every value U takes is MWGD at a point of the
/// search space, so U is never below the optimum. In an all-ordinary
/// query U is at most twice the optimum when the member p of the optimal
/// group nearest the optimal location l* lies inside the search space (and
/// its queries are exact): p is then a candidate, priced at most cost(l*) +
/// (sum_j a_j) · d(l*, p) <= 2 · cost(l*). Otherwise nothing bounds U
/// above but the candidates and probe nodes themselves.
///
/// SolveMolq builds one bound per solve (BuildMolqOverlay with prune on);
/// SolveMolqTopK, serve's cached
/// overlays and what-if keep unpruned overlays, because they need ranks
/// beyond the first or weights other than the query's.
class CombinationBound {
 public:
  /// What the bound search did (the "combination_bound" span's counters):
  /// the points priced as candidates for U (grid-pass sites and probe
  /// nodes), those priced by brute force over every object (the probe
  /// nodes; 0 when the grid pass priced a candidate), and the Fermat–Weber
  /// rounds that followed.
  struct BoundStats {
    size_t candidates = 0;
    size_t full_evaluations = 0;
    size_t descent_rounds = 0;
  };

  /// Decomposes every object of `query`, runs the grid pass over the
  /// ordinary sets (a ParallelFor over them on `threads`; one "site_grid"
  /// span per set, counters `buckets`, `nn_queries`, `sites_scanned`) and
  /// sets U and τ. `grids[s]` is the SiteGrid of set s's object locations
  /// for an ordinary set and null for a weighted one; the grids are read
  /// only while the constructor runs.
  /// `epsilon` is the Fermat–Weber stopping-rule error bound the optimizer
  /// will use. The result does not depend on `threads`.
  CombinationBound(const MolqQuery& query, const Rect& search_space,
                   double epsilon,
                   std::span<const SiteGrid* const> grids,
                   int threads = 1);

  /// U: MWGD at a point of the search space (+inf only when no term is
  /// finite).
  double upper_bound() const { return upper_bound_; }

  /// τ: pairs whose merged combination has lb > τ are pruned (+inf when
  /// nothing is).
  double threshold() const { return threshold_; }

  const BoundStats& stats() const { return stats_; }

  /// True when CombinationLowerBound(query, MergePois(x, y)) > threshold(),
  /// bit for bit. Both lists must be sorted and unique. Allocation-free:
  /// it merge-walks the two lists in MergePois order.
  bool Prunes(const std::vector<PoiRef>& x,
              const std::vector<PoiRef>& y) const;

  /// What KeepSites saw: the sites it judged and those it kept.
  struct FilterStats {
    size_t objects = 0;
    size_t kept = 0;
  };

  /// The object filter: keep[k] == 0 when site k of the ordinary set `set`
  /// (its SiteGrid's site order) has objlb > τ · (1 + 2^-40), so no
  /// combination holding it survives the overlap. objlb is the grid
  /// pass's: weighted sets add only their smallest offset, and where a
  /// nearest-site query is not exact the set adds no pair term. Keeps
  /// every site when nothing is pruned (τ = +inf) or the query has one
  /// set. Sizes `keep` to the set's sites.
  void KeepSites(int32_t set, std::vector<uint8_t>* keep,
                 FilterStats* stats) const;

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
  std::vector<std::vector<double>> objlb_;  // per site; empty if weighted
  BoundStats stats_;
  double upper_bound_;
  double threshold_;
};

/// The pairwise lower bound lb(G) described above, for an OVR's poi list.
double CombinationLowerBound(const MolqQuery& query,
                             const std::vector<PoiRef>& pois);

}  // namespace movd

#endif  // MOVD_CORE_PRUNED_OVERLAP_H_
