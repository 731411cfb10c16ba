#include "core/pruned_overlap.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {

namespace {

// At most this many Fermat–Weber rounds lower U below the best candidate.
constexpr int kDescentRounds = 8;
// A query the grid pass cannot price probes the nodes of this grid.
constexpr int kProbeGrid = 8;
// The grid pass visits a set's sites with this stride (or the next one
// coprime to the site count).
constexpr size_t kPassStride = 7919;

// One ordinary set's share of the grid pass: its least-priced candidate
// (site -1 when none) and the work done.
struct SetPass {
  double price = std::numeric_limits<double>::infinity();
  int32_t site = -1;
  std::vector<int32_t> objects;  // the candidate's group
  size_t candidates = 0;
  size_t nn_queries = 0;
  size_t sites_scanned = 0;
};

// KeepSites' cut for a threshold built from `u`: (1 + ε) · u · (1 + 2^-40)
// · (1 + 2^-40), rounded step by step as τ and the cut are. Rounding is
// monotone, so a larger u never gives a smaller cut.
double CutFor(double epsilon, double u) {
  return (1.0 + std::max(epsilon, 0.0)) * u * (1.0 + 0x1p-40) *
         (1.0 + 0x1p-40);
}

// How far a nearest site may lie before its pair term alone puts a site's
// objlb above `cut`: with a true distance d > Reach(cut, offsets, a),
// offsets + a · Distance exceeds cut in doubles (the factor 1 + 2^-30
// leaves room for every rounding while the pair term's share of the cut is
// above 2^-20). +inf when there is no cut or no pair term.
double Reach(double cut, double offsets, double a) {
  const double room = cut - offsets;
  if (!(a > 0.0) || !(room > cut * 0x1p-20) ||
      cut == std::numeric_limits<double>::infinity()) {
    return std::numeric_limits<double>::infinity();
  }
  return room / a * (1.0 + 0x1p-30);
}

// The search for U over one query: the grid pass over the ordinary sets,
// the probe grid and the Fermat–Weber descent.
class UpperBoundSearch {
 public:
  UpperBoundSearch(const MolqQuery& query,
                   std::span<const SiteGrid* const> grids,
                   const Rect& search_space, std::span<const double> min_a,
                   double epsilon)
      : query_(query),
        grids_(grids),
        search_space_(search_space),
        min_a_(min_a),
        epsilon_(epsilon) {
    for (size_t s = 0; s < grids.size(); ++s) {
      if (grids[s] != nullptr) ordinary_.push_back(s);
    }
  }

  const std::vector<size_t>& ordinary() const { return ordinary_; }

  // WGD of `objects` at q, the terms summed in set order as
  // MinWeightedGroupDistance sums them: MWGD(q) when the group is nearest
  // to q.
  double Price(const Point& q, const std::vector<int32_t>& objects) const {
    double sum = 0.0;
    for (size_t j = 0; j < query_.sets.size(); ++j) {
      sum += WeightedDistance(q, query_.sets[j].objects[objects[j]],
                              query_.type_function, query_.ObjectFunction(j));
    }
    return sum;
  }

  // The grid pass over ordinary set `s`: in stride order, each site finds
  // its nearest site of every other ordinary set. Stores the site's objlb
  // (the header; a set whose query is not exact adds no pair term). With
  // `price` (an all-ordinary query) a site inside the search space whose
  // queries are all exact is a candidate, priced at its nearest group;
  // `out` keeps the least price, ties to the LessXY-least site. Once a
  // price is known, a site stops at the first partial objlb above its cut
  // (the header), unpriced.
  void Pass(size_t s, bool price, double min_offset_sum,
            std::vector<double>* objlb, SetPass* out) const {
    const SiteGrid& grid = *grids_[s];
    const std::vector<Point>& sites = grid.sites();
    objlb->resize(sites.size());
    std::vector<int32_t> objects(query_.sets.size(), 0);
    double cut = std::numeric_limits<double>::infinity();
    // A stride coprime to the site count visits every site once, spread
    // over the set from the start, so the least price (and the cut) comes
    // down early.
    const size_t n = sites.size();
    size_t stride = kPassStride;
    while (n > 1 && std::gcd(stride, n) != 1) ++stride;
    for (size_t i = 0, k = 0; i < n; ++i, k = (k + stride) % n) {
      const Point& site = sites[k];
      bool exact = true;
      bool beyond_cut = false;
      double pair_bound = 0.0;
      for (const size_t j : ordinary_) {
        if (j == s) continue;
        const SiteGrid& other = *grids_[j];
        const double a = std::min(min_a_[s], min_a_[j]);
        ++out->nn_queries;
        const int32_t nn =
            other.Nearest(site, &out->sites_scanned,
                          Reach(cut, min_offset_sum, a));
        if (nn == SiteGrid::kBeyondReach) {
          // The term alone passes the cut (Reach): the site is dropped.
          beyond_cut = true;
          pair_bound = std::numeric_limits<double>::infinity();
          break;
        }
        if (nn < 0) {
          exact = false;
          continue;
        }
        objects[j] = other.first_input()[nn];
        if (a > 0.0) {
          pair_bound =
              std::max(pair_bound, a * Distance(site, other.sites()[nn]));
        }
        if (min_offset_sum + pair_bound > cut) {
          beyond_cut = true;
          break;
        }
      }
      (*objlb)[k] = min_offset_sum + pair_bound;  // +inf beyond reach
      if (beyond_cut || !price || !exact || !search_space_.Contains(site)) {
        continue;
      }
      objects[s] = grid.first_input()[k];
      ++out->candidates;
      // A NaN price (0 * an overflowed distance) loses here.
      const double p = Price(site, objects);
      if (p < out->price ||
          (p == out->price && LessXY(site, sites[out->site]))) {
        out->price = p;
        out->site = static_cast<int32_t>(k);
        out->objects = objects;
        cut = CutFor(epsilon_, p);
      }
    }
  }

  // The group nearest to q: an ordinary set asks its grid, a weighted set
  // (or one whose query is not exact) takes its least WD by brute force,
  // the lowest index on ties, as ArgMinGroup does.
  void Nearest(const Point& q, std::vector<int32_t>* group) const {
    for (size_t j = 0; j < query_.sets.size(); ++j) {
      if (grids_[j] != nullptr) {
        const int32_t site = grids_[j]->Nearest(q);
        if (site >= 0) {
          (*group)[j] = grids_[j]->first_input()[site];
          continue;
        }
      }
      const std::vector<SpatialObject>& objects = query_.sets[j].objects;
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < objects.size(); ++i) {
        const double wd = WeightedDistance(q, objects[i], query_.type_function,
                                           query_.ObjectFunction(j));
        if (wd < best) {
          best = wd;
          (*group)[j] = static_cast<int32_t>(i);
        }
      }
    }
  }

  // Up to kDescentRounds rounds from `group`: solve its Fermat–Weber
  // problem, clamp the solution into the search space and price the group
  // nearest to it, until that group repeats. Returns the least of `u` and
  // the prices met.
  double Descend(std::vector<int32_t> group, double u, size_t* rounds) const {
    std::vector<PoiRef> refs;
    std::vector<WeightedPoint> points;
    for (int round = 0; round < kDescentRounds; ++round) {
      refs.clear();
      for (size_t j = 0; j < group.size(); ++j) {
        refs.push_back({static_cast<int32_t>(j), group[j]});
      }
      BuildFermatWeberProblem(query_, refs, &points);
      const Point solved = SolveFermatWeber(points).location;
      const Point q{
          std::clamp(solved.x, search_space_.min_x, search_space_.max_x),
          std::clamp(solved.y, search_space_.min_y, search_space_.max_y)};
      // A NaN solution (degenerate solve) is outside every rectangle.
      if (!search_space_.Contains(q)) break;
      std::vector<int32_t> next = group;
      Nearest(q, &next);
      ++*rounds;
      // A NaN price loses here.
      u = std::min(u, Price(q, next));
      if (next == group) break;
      group = std::move(next);
    }
    return u;
  }

 private:
  const MolqQuery& query_;
  std::span<const SiteGrid* const> grids_;
  const Rect& search_space_;
  std::span<const double> min_a_;
  double epsilon_;
  std::vector<size_t> ordinary_;
};

}  // namespace

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

CombinationBound::CombinationBound(
    const MolqQuery& query, const Rect& search_space, double epsilon,
    std::span<const SiteGrid* const> grids, int threads)
    : upper_bound_(std::numeric_limits<double>::infinity()),
      threshold_(std::numeric_limits<double>::infinity()) {
  // Its own span: inside SolveMolq it runs within "vd_generator", after
  // the per-set grids and before any cell is triangulated or clipped.
  TraceSpan span("combination_bound");
  MOVD_CHECK(grids.size() == query.sets.size());
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

  // The grid pass: per ordinary set, every site's objlb and, in an
  // all-ordinary query, its least-priced candidate for U. Sets are
  // independent and each passes serially, so nothing depends on the thread
  // count.
  const UpperBoundSearch search(query, grids, search_space, set_min_a_,
                                epsilon);
  const std::vector<size_t>& ordinary = search.ordinary();
  const bool price = ordinary.size() == query.sets.size();
  objlb_.resize(query.sets.size());
  std::vector<SetPass> passes(query.sets.size());
  const Trace::Context ctx = Trace::CaptureContext();
  ParallelFor(threads, ordinary.size(), [&](size_t i) {
    TraceContextScope scope(ctx);
    TraceSpan grid_span("site_grid");
    const size_t s = ordinary[i];
    search.Pass(s, price, min_offset_sum_, &objlb_[s], &passes[s]);
    grid_span.Counter("buckets", static_cast<int64_t>(grids[s]->buckets()));
    grid_span.Counter("nn_queries",
                      static_cast<int64_t>(passes[s].nn_queries));
    grid_span.Counter("sites_scanned",
                      static_cast<int64_t>(passes[s].sites_scanned));
  });
  // The least price, ties by set, then site.
  double upper_bound = std::numeric_limits<double>::infinity();
  std::vector<int32_t> start(query.sets.size(), 0);
  for (const SetPass& pass : passes) {
    stats_.candidates += pass.candidates;
    if (pass.site >= 0 && pass.price < upper_bound) {
      upper_bound = pass.price;
      start = pass.objects;
    }
  }
  if (upper_bound == std::numeric_limits<double>::infinity()) {
    // No site was priced (a weighted set, or no in-space site with exact
    // queries): the least MWGD over the nodes of a probe grid, the
    // first in row order on ties, and its nearest group.
    Point best_probe = search_space.Center();
    const double sx = search_space.Width() / (kProbeGrid - 1);
    const double sy = search_space.Height() / (kProbeGrid - 1);
    for (int gy = 0; gy < kProbeGrid; ++gy) {
      for (int gx = 0; gx < kProbeGrid; ++gx) {
        const Point q{search_space.min_x + gx * sx,
                      search_space.min_y + gy * sy};
        // A NaN cost loses here.
        const double cost = MinWeightedGroupDistance(query, q);
        if (cost < upper_bound) {
          upper_bound = cost;
          best_probe = q;
        }
      }
    }
    stats_.candidates += kProbeGrid * kProbeGrid;
    stats_.full_evaluations += kProbeGrid * kProbeGrid;
    start = ArgMinGroup(query, best_probe);
  }
  upper_bound = search.Descend(std::move(start), upper_bound,
                               &stats_.descent_rounds);
  upper_bound_ = upper_bound;
  span.Counter("candidates", static_cast<int64_t>(stats_.candidates));
  span.Counter("full_evaluations",
               static_cast<int64_t>(stats_.full_evaluations));
  span.Counter("descent_rounds", static_cast<int64_t>(stats_.descent_rounds));

  // Prune nothing unless U is finite and every weighted distance is a
  // non-negative multiple of a distance plus a non-negative offset (the
  // premises of lb's validity and of its monotonicity under extension).
  if (!std::isfinite(upper_bound) || !non_negative) return;
  // τ = (1 + ε) · U · (1 + 2^-40). Why the reduced overlay gives the
  // unpruned answer bit for bit:
  //  - U = WGD(G_q, q) at a point q of the search space, with G_q a group
  //    of objects nearest to q (exact grid queries for ordinary sets,
  //    brute-force minima otherwise): MWGD(q) up to the rounding of the sum.
  //    So the overlay holds the OVR of G_q (up to rounding on cell
  //    borders), and min_l cost(G_q, l) <= U.
  //  - The optimizer reports a cost c(G) per combination at a real
  //    location, with c(G) <= (1 + ε) · min_l cost(G, l) by its stopping
  //    rule (offsets are non-negative). So the winner has
  //    c_W <= c(G_q) <= (1 + ε) · U.
  //  - A pruned G has c(G) >= min_l cost(G, l) >= lb(G) > τ. The factor
  //    (1 + 2^-40) absorbs the few ulps of rounding in lb, in the reported
  //    costs and in U's sum, so c(G) > c_W: no pruned combination could
  //    have won, or tied the winner.
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

void CombinationBound::KeepSites(int32_t set, std::vector<uint8_t>* keep,
                                 FilterStats* stats) const {
  const std::vector<double>& objlb = objlb_[set];
  keep->assign(objlb.size(), 1);
  stats->objects += objlb.size();
  const double cut = threshold_ * (1.0 + 0x1p-40);
  size_t kept = objlb.size();
  for (size_t k = 0; k < objlb.size(); ++k) {
    if (objlb[k] > cut) {
      (*keep)[k] = 0;
      --kept;
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
