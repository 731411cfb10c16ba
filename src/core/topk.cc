#include "core/topk.h"

#include <utility>

#include "core/weighted_distance.h"
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
  // OVR is one candidate answer; groups are copied only for the k kept.
  const BatchResult scan = ScanBestK(
      movd.ovrs.size(),
      [&](size_t i, std::vector<WeightedPoint>* points) {
        return BuildFermatWeberProblem(query, movd.ovrs[i].pois, points);
      },
      [&](size_t a, size_t b) {
        return GroupBefore(movd.ovrs[a].pois, movd.ovrs[b].pois);
      },
      k, options);
  result.stats.optimizer = scan.stats;
  if (scan.cancelled) {
    result.status = StatusCode::kCancelled;
    return result;
  }
  result.ranked.reserve(scan.best.size());
  for (const BatchAnswer& a : scan.best) {
    result.ranked.push_back(
        {a.location, a.cost, {}, movd.ovrs[a.problem].pois});
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
  front.status = CheckWeightTerms(query);
  if (front.status != StatusCode::kOk) return front;
  TraceContextScope trace_scope(options.exec.trace);
  TRACE_SPAN("solve_molq_topk");
  // Unpruned: ranks beyond the first need the combinations a
  // CombinationBound would drop.
  const Movd movd = BuildMolqOverlay(query, search_space, options,
                                     /*prune=*/false, &front);
  if (front.status != StatusCode::kOk) return front;

  Stopwatch sw;
  MolqResult top = TopKFromMovd(query, movd, k, options);
  front.stats.optimizer = top.stats.optimizer;
  top.stats = front.stats;
  top.stats.optimize_seconds = sw.ElapsedSeconds();
  top.audit = std::move(front.audit);
  return top;
}

}  // namespace movd
