#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "model/query_model.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

struct OvrOutcome {
  Point location;
  double cost = 0.0;  // total cost (Fermat–Weber cost + constant offset)
  bool solved = false;
};

}  // namespace

OptimizerResult OptimizeMovd(const MolqQuery& query, const Movd& movd,
                             const OptimizerOptions& options) {
  MOVD_CHECK_MSG(!movd.ovrs.empty(),
                 "the Optimizer needs a non-empty MOVD to scan");
  OptimizerResult result;
  const size_t n = movd.ovrs.size();

  // The §5.4 global cost bound (total-cost space), shared by all workers
  // through CAS-min. Both the prefilter and the in-iteration prune compare
  // strictly, so an OVR whose optimum ties the bound always completes: the
  // winner is then a pure (cost, group) decision, bit-identical for every
  // thread count.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};
  std::vector<OvrOutcome> outcomes(n);
  std::atomic<uint64_t> problems{0};
  std::atomic<uint64_t> skipped_prefilter{0};
  std::atomic<uint64_t> pruned_by_bound{0};
  std::atomic<uint64_t> total_iterations{0};

  const Trace::Context trace_ctx = Trace::CaptureContext();
  ParallelFor(options.exec.threads, n, [&](size_t i) {
    // Cancellation checkpoint (serving deadlines): once per claimed OVR.
    // The token latches, so after it fires every worker drains its
    // remaining iterations without doing work.
    if (TokenExpired(options.exec.cancel)) return;
    const Ovr& ovr = movd.ovrs[i];
    MOVD_CHECK(!ovr.pois.empty());
    // Pool threads have no ambient trace; re-install the caller's so the
    // per-OVR spans parent under the Optimizer stage span.
    TraceContextScope trace_scope(trace_ctx);
    TraceSpan span("optimize_ovr");
    problems.fetch_add(1, std::memory_order_relaxed);

    std::vector<WeightedPoint> points;
    const double offset = BuildFermatWeberProblem(query, ovr.pois, &points);

    // The prefix optimum plus the full problem's constant offset is a
    // lower bound of the full problem's optimal total cost.
    if (options.use_two_point_prefilter && points.size() > 3 &&
        offset + TwoPointPrefixCost(points) >
            bound.load(std::memory_order_relaxed)) {
      skipped_prefilter.fetch_add(1, std::memory_order_relaxed);
      span.Counter("skipped_prefilter", 1);
      return;
    }

    FermatWeberOptions fw;
    fw.epsilon = options.epsilon;
    fw.cancel = options.exec.cancel;
    if (options.use_cost_bound) {
      // The solver sees pure Fermat–Weber costs; it shifts its lower bound
      // by this problem's constant offset before comparing.
      fw.shared_cost_bound = &bound;
      fw.shared_bound_offset = offset;
    }
    const FermatWeberResult r = SolveFermatWeber(points, fw);
    total_iterations.fetch_add(static_cast<uint64_t>(r.iterations),
                               std::memory_order_relaxed);
    span.Counter("weiszfeld_iters", r.iterations);
    if (r.pruned) {
      pruned_by_bound.fetch_add(1, std::memory_order_relaxed);
      span.Counter("pruned_by_bound", 1);
      return;
    }
    const double total = r.cost + offset;
    outcomes[i] = {r.location, total, true};
    AtomicMinDouble(&bound, total);
  });

  result.stats.problems = problems.load();
  result.stats.skipped_prefilter = skipped_prefilter.load();
  result.stats.pruned_by_bound = pruned_by_bound.load();
  result.stats.total_iterations = total_iterations.load();

  // A fired token means an unknown subset of OVRs was skipped: the partial
  // best could be wrong, so no answer is reduced at all.
  if (TokenExpired(options.exec.cancel)) {
    result.cancelled = true;
    return result;
  }

  // Deterministic reduction: minimum total cost, the GroupBefore-least
  // group on exact ties (the tie rule of top-k and every query shape), so
  // neither OVR order nor pruned OVRs can change the winner.
  bool have_answer = false;
  for (size_t i = 0; i < n; ++i) {
    const OvrOutcome& o = outcomes[i];
    if (!o.solved) continue;
    if (!have_answer || o.cost < result.cost ||
        (o.cost == result.cost &&
         GroupBefore(movd.ovrs[i].pois, result.group))) {
      have_answer = true;
      result.cost = o.cost;
      result.location = o.location;
      result.group = movd.ovrs[i].pois;
    }
  }
  MOVD_CHECK(have_answer);
  return result;
}

}  // namespace movd
