#include "core/topk.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace movd {

MolqResult TopKFromMovd(const MolqQuery& query, const Movd& movd, size_t k,
                        const MolqOptions& options) {
  MOVD_CHECK_MSG(k > 0, "top-k needs k >= 1");
  MOVD_CHECK_MSG(!movd.ovrs.empty(),
                 "the top-k Optimizer needs a non-empty MOVD to scan");
  MolqResult result;
  result.trace = options.exec.trace;
  result.stats.threads = ResolveThreads(options.exec.threads);
  TraceContextScope trace_scope(options.exec.trace);
  TraceSpan span("topk_optimize");

  // Best cost per distinct combination; duplicates (MBRB false positives)
  // collapse naturally. Groups the bound already pruned are remembered too:
  // the bound only ever decreases, so a pruned group stays pruned, and a
  // duplicate OVR must not re-run its Weiszfeld iteration.
  std::map<std::vector<PoiRef>, RankedLocation> best_by_group;
  std::set<std::vector<PoiRef>> pruned_groups;

  // The k smallest costs seen so far, as a bounded max-heap: the root is
  // the running k-th best, which is the prune bound. O(log k) per
  // insertion instead of an O(n) selection over every group so far.
  std::priority_queue<double> best_k;
  // Atomic so the solver's live shared-bound prune can read it; the loop
  // itself is serial. The prune is strict (lb > bound), so a candidate
  // whose optimum exactly ties the current k-th cost is still solved and
  // retained — dropping it would under-fill the result when fewer than k
  // other combinations exist.
  std::atomic<double> kth_bound{std::numeric_limits<double>::infinity()};

  for (const Ovr& ovr : movd.ovrs) {
    // Cancellation checkpoint (serving deadlines): once per OVR. A fired
    // token discards the partial ranking — a truncated scan could rank
    // wrong answers into the top k.
    if (TokenExpired(options.exec.cancel)) {
      result.status = StatusCode::kCancelled;
      return result;
    }
    MOVD_CHECK(!ovr.pois.empty());
    if (best_by_group.count(ovr.pois) || pruned_groups.count(ovr.pois)) {
      continue;  // combination already solved (or already proven worse)
    }
    std::vector<WeightedPoint> points;
    double offset = 0.0;
    for (const PoiRef& ref : ovr.pois) {
      const SpatialObject& obj = query.sets.at(ref.set).objects.at(ref.object);
      const FermatWeberTerm term = DecomposeWeightedDistance(
          obj, query.type_function, query.ObjectFunction(ref.set));
      points.push_back({obj.location, term.fw_weight});
      offset += term.offset;
    }
    FermatWeberOptions fw;
    fw.epsilon = options.epsilon;
    if (options.use_cost_bound) {
      fw.shared_cost_bound = &kth_bound;
      fw.shared_bound_offset = offset;
    }
    const FermatWeberResult r = SolveFermatWeber(points, fw);
    span.Counter("weiszfeld_iters", r.iterations);
    if (r.pruned) {  // provably worse than the current k-th best
      pruned_groups.insert(ovr.pois);
      continue;
    }
    RankedLocation ranked;
    ranked.location = r.location;
    ranked.cost = r.cost + offset;
    ranked.group = ovr.pois;
    const double cost = ranked.cost;
    best_by_group.emplace(ovr.pois, std::move(ranked));
    if (best_k.size() < k) {
      best_k.push(cost);
    } else if (cost < best_k.top()) {
      best_k.pop();
      best_k.push(cost);
    }
    if (best_k.size() == k) {
      kth_bound.store(best_k.top(), std::memory_order_relaxed);
    }
  }

  result.ranked.reserve(best_by_group.size());
  for (auto& [group, r] : best_by_group) result.ranked.push_back(std::move(r));
  // stable_sort keeps the map's (set, object) group order among equal
  // costs, so tied tails are deterministic: when every candidate ties, the
  // ranking is exactly the lexicographic group order.
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const RankedLocation& a, const RankedLocation& b) {
                     return a.cost < b.cost;
                   });
  if (result.ranked.size() > k) result.ranked.resize(k);
  span.Counter("ranked", static_cast<int64_t>(result.ranked.size()));
  if (!result.ranked.empty()) {
    result.location = result.ranked.front().location;
    result.cost = result.ranked.front().cost;
    result.group = result.ranked.front().group;
  }
  return result;
}

MolqResult SolveMolqTopK(const MolqQuery& query, const Rect& search_space,
                         size_t k, const MolqOptions& options) {
  MOVD_CHECK(k > 0);
  MolqResult front;
  front.trace = options.exec.trace;
  TraceContextScope trace_scope(options.exec.trace);
  TRACE_SPAN("solve_molq_topk");
  // Unpruned: ranks beyond the first need the combinations a
  // CombinationBound would drop.
  const Movd movd = BuildMolqOverlay(query, search_space, options,
                                     /*prune=*/false, &front);
  if (front.status != StatusCode::kOk) return front;

  Stopwatch sw;
  MolqResult top = TopKFromMovd(query, movd, k, options);
  top.stats = front.stats;
  top.stats.optimize_seconds = sw.ElapsedSeconds();
  top.audit = std::move(front.audit);
  return top;
}

}  // namespace movd
