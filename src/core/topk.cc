#include "core/topk.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "model/query_model.h"
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

  // Every OVR holds its own combination (the overlay invariant), so each
  // solved OVR is one candidate answer; groups are copied only for the k
  // answers kept.
  struct Solved {
    double cost;
    Point location;
    size_t ovr;
  };
  std::vector<Solved> solved;

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
  std::vector<WeightedPoint> points;

  for (size_t i = 0; i < movd.ovrs.size(); ++i) {
    // Cancellation checkpoint (serving deadlines): once per OVR, and every
    // 256 Weiszfeld iterations inside its solve. A fired token discards
    // the partial ranking — a truncated scan could rank wrong answers into
    // the top k.
    if (TokenExpired(options.exec.cancel)) break;
    const Ovr& ovr = movd.ovrs[i];
    MOVD_CHECK(!ovr.pois.empty());
    const double offset = BuildFermatWeberProblem(query, ovr.pois, &points);
    FermatWeberOptions fw;
    fw.epsilon = options.epsilon;
    fw.cancel = options.exec.cancel;
    if (options.use_cost_bound) {
      fw.shared_cost_bound = &kth_bound;
      fw.shared_bound_offset = offset;
    }
    const FermatWeberResult r = SolveFermatWeber(points, fw);
    span.Counter("weiszfeld_iters", r.iterations);
    if (r.pruned) continue;  // provably worse than the current k-th best
    const double cost = r.cost + offset;
    solved.push_back({cost, r.location, i});
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
  if (TokenExpired(options.exec.cancel)) {
    result.status = StatusCode::kCancelled;
    return result;
  }

  // Ascending cost, exact ties by GroupBefore (CandidateOrderBefore's
  // rule): when every candidate ties, the ranking is exactly the
  // lexicographic group order.
  const size_t kept = std::min(k, solved.size());
  std::partial_sort(solved.begin(), solved.begin() + kept, solved.end(),
                    [&](const Solved& a, const Solved& b) {
                      if (a.cost < b.cost) return true;
                      if (b.cost < a.cost) return false;
                      return GroupBefore(movd.ovrs[a.ovr].pois,
                                         movd.ovrs[b.ovr].pois);
                    });
  result.ranked.reserve(kept);
  for (size_t i = 0; i < kept; ++i) {
    const Solved& best = solved[i];
    result.ranked.push_back(
        {best.location, best.cost, {}, movd.ovrs[best.ovr].pois});
  }
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
