#include "core/pruned_overlap.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"

namespace movd {

double SeedUpperBound(const MolqQuery& query, const Rect& search_space,
                      int resolution) {
  MOVD_CHECK(resolution > 1);
  double best = std::numeric_limits<double>::infinity();
  Point best_probe = search_space.Center();
  const double sx = search_space.Width() / (resolution - 1);
  const double sy = search_space.Height() / (resolution - 1);
  for (int gy = 0; gy < resolution; ++gy) {
    for (int gx = 0; gx < resolution; ++gx) {
      const Point q{search_space.min_x + gx * sx,
                    search_space.min_y + gy * sy};
      const double cost = MinWeightedGroupDistance(query, q);
      if (cost < best) {
        best = cost;
        best_probe = q;
      }
    }
  }
  // Refine once: the best probe's nearest group, solved where it is
  // cheapest. The solution is clamped into the search space, so U stays
  // the MWGD of a point the overlay covers.
  const std::vector<int32_t> nearest = ArgMinGroup(query, best_probe);
  std::vector<PoiRef> group;
  for (size_t s = 0; s < nearest.size(); ++s) {
    group.push_back({static_cast<int32_t>(s), nearest[s]});
  }
  std::vector<WeightedPoint> points;
  BuildFermatWeberProblem(query, group, &points);
  const Point solved = SolveFermatWeber(points).location;
  const Point clamped{
      std::clamp(solved.x, search_space.min_x, search_space.max_x),
      std::clamp(solved.y, search_space.min_y, search_space.max_y)};
  // A NaN cost (degenerate solve) loses to `best` here.
  return std::min(best, MinWeightedGroupDistance(query, clamped));
}

double CombinationLowerBound(const MolqQuery& query,
                             const std::vector<PoiRef>& pois) {
  // Each member's WD is a_i * d(l, p_i) + b_i: points carry (p_i, a_i).
  std::vector<WeightedPoint> points;
  const double offset = BuildFermatWeberProblem(query, pois, &points);
  // For any l: a_i d(l,p_i) + a_j d(l,p_j) >= min(a_i,a_j) * d(p_i,p_j).
  double pair_bound = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      pair_bound = std::max(pair_bound,
                            std::min(points[i].weight, points[j].weight) *
                                Distance(points[i].location,
                                         points[j].location));
    }
  }
  return offset + pair_bound;
}

CombinationBound::CombinationBound(const MolqQuery& query,
                                   const Rect& search_space, double epsilon)
    : threshold_(std::numeric_limits<double>::infinity()) {
  // Its own span: inside SolveMolq it runs within "vd_generator", after
  // the per-set triangulations and before any cell is clipped.
  TRACE_SPAN("combination_bound");
  bool non_negative = true;
  set_begin_.reserve(query.sets.size());
  set_min_a_.reserve(query.sets.size());
  for (size_t s = 0; s < query.sets.size(); ++s) {
    set_begin_.push_back(terms_.size());
    double min_a = std::numeric_limits<double>::infinity();
    double min_b = std::numeric_limits<double>::infinity();
    for (const SpatialObject& obj : query.sets[s].objects) {
      const FermatWeberTerm t = DecomposeWeightedDistance(
          obj, query.type_function, query.ObjectFunction(s));
      terms_.push_back({obj.location, t.fw_weight, t.offset});
      non_negative = non_negative && t.fw_weight >= 0.0 && t.offset >= 0.0;
      min_a = std::min(min_a, t.fw_weight);
      min_b = std::min(min_b, t.offset);
    }
    set_min_a_.push_back(min_a);
    min_offset_sum_ += min_b;
  }
  // Prune nothing unless U is finite and every weighted distance is a
  // non-negative multiple of a distance plus a non-negative offset (the
  // premises of lb's validity and of its monotonicity under extension).
  const double upper_bound = SeedUpperBound(query, search_space);
  if (!std::isfinite(upper_bound) || !non_negative) return;
  // τ = (1 + ε) · U · (1 + 2^-40). Why the reduced overlay gives the
  // unpruned answer bit for bit:
  //  - U = MWGD(q) at a point q of the search space, so the overlay holds
  //    the OVR of q's nearest group G_q (up to rounding on cell borders),
  //    and min_l cost(G_q, l) <= U.
  //  - The optimizer reports a cost c(G) per combination at a real
  //    location, with c(G) <= (1 + ε) · min_l cost(G, l) by its stopping
  //    rule (offsets are non-negative). So the winner has
  //    c_W <= c(G_q) <= (1 + ε) · U.
  //  - A pruned G has c(G) >= min_l cost(G, l) >= lb(G) > τ. The factor
  //    (1 + 2^-40) absorbs the few ulps of rounding in lb and in the
  //    reported costs, so c(G) > c_W: no pruned combination could have
  //    won, or tied the winner.
  //  - The optimizer resolves the winner by (cost, group) with strict
  //    cost-bound cuts, a function of the set of combinations alone, and
  //    every combination that won or tied survives, so it picks the same
  //    combination and location.
  // The same slack keeps the winner's own combination, lb <= c_W < τ, and
  // with it at least one OVR through every step.
  //
  // KeepSites drops a site only when its objlb (the header) exceeds
  // τ · (1 + 2^-40). objlb sums at most one offset per set and forms one
  // product of a distance, so its rounding and that of lb(G) stay far
  // below 2^-40 relative; every G holding the site then has a computed lb
  // above τ and Prunes cuts it at the step that completes it, if not
  // before. Dropping the site's cell removes only OVRs whose every
  // descendant is cut that way. The remaining pairs meet the same operands
  // in the same relative start order, so the final overlay, not only the
  // answer, is the one built from every cell.
  threshold_ = (1.0 + std::max(epsilon, 0.0)) * upper_bound * (1.0 + 0x1p-40);
}

void CombinationBound::KeepSites(
    int32_t set, std::span<const VoronoiDiagram* const> diagrams,
    std::vector<uint8_t>* keep, FilterStats* stats) const {
  const std::vector<Point>& sites = diagrams[set]->sites();
  keep->assign(sites.size(), 1);
  stats->objects += sites.size();
  // The sets a pair term can come from: the other ordinary ones whose
  // smaller a is positive.
  const double a = set_min_a_[set];
  std::vector<size_t> partners;
  for (size_t j = 0; j < diagrams.size(); ++j) {
    if (j != static_cast<size_t>(set) && diagrams[j] != nullptr &&
        std::min(a, set_min_a_[j]) > 0.0) {
      partners.push_back(j);
    }
  }
  if (threshold_ == std::numeric_limits<double>::infinity() ||
      partners.empty()) {
    stats->kept += sites.size();
    return;
  }
  const double cut = threshold_ * (1.0 + 0x1p-40);
  std::vector<int32_t> at(diagrams.size(), 0);  // where each walk ended
  size_t kept = sites.size();
  // Hilbert order keeps consecutive queries close, so each walk starts
  // next to its answer.
  for (const int32_t k : diagrams[set]->hilbert_order()) {
    double pair_bound = 0.0;
    for (const size_t j : partners) {
      const VoronoiDiagram& other = *diagrams[j];
      const int32_t nn =
          other.NearestSite(sites[k], at[j], &stats->walk_steps);
      if (nn < 0) continue;
      at[j] = nn;
      pair_bound = std::max(pair_bound, std::min(a, set_min_a_[j]) *
                                            Distance(sites[k],
                                                     other.sites()[nn]));
      if (min_offset_sum_ + pair_bound > cut) {
        (*keep)[k] = 0;
        --kept;
        break;
      }
    }
  }
  stats->kept += kept;
}

bool CombinationBound::Prunes(const std::vector<PoiRef>& x,
                              const std::vector<PoiRef>& y) const {
  if (threshold_ == std::numeric_limits<double>::infinity()) return false;
  // Walks the merge of x and y exactly as MergePois builds it (std::merge
  // takes x first on equal keys, then std::unique drops the copy from y).
  // `visit(term, xi, yj)` sees each merged element once, with x[0, xi) and
  // y[0, yj) holding every element merged before it.
  const auto walk = [&](const auto& visit) {
    size_t i = 0;
    size_t j = 0;
    while (i < x.size() || j < y.size()) {
      const size_t xi = i;
      const size_t yj = j;
      const bool from_x =
          j == y.size() || (i < x.size() && !(y[j] < x[i]));
      const PoiRef& ref = from_x ? x[i++] : y[j++];
      if (from_x && j < y.size() && y[j] == ref) ++j;
      if (visit(TermOf(ref), xi, yj)) return true;
    }
    return false;
  };
  // lb sums the offsets in merged order first (the order fixes the sum's
  // rounding) ...
  double offset = 0.0;
  walk([&](const Term& t, size_t, size_t) {
    offset += t.b;
    return false;
  });
  // ... then adds the largest pair term. Pairs of one element with every
  // earlier one cover each unordered pair at least once; a repeat is
  // harmless under max. Adding a non-negative pair term never lowers the
  // sum, so the walk can stop at the first partial maximum that prunes.
  double pair_bound = 0.0;
  const auto pair_with = [&](const Term& t, const std::vector<PoiRef>& list,
                             size_t count) {
    for (size_t k = 0; k < count; ++k) {
      const Term& prior = TermOf(list[k]);
      pair_bound = std::max(pair_bound, std::min(prior.a, t.a) *
                                            Distance(prior.location,
                                                     t.location));
    }
  };
  return walk([&](const Term& t, size_t xi, size_t yj) {
    pair_with(t, x, xi);
    pair_with(t, y, yj);
    return offset + pair_bound > threshold_;
  });
}

}  // namespace movd
