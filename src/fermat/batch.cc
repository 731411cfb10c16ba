#include "fermat/batch.h"

#include <atomic>
#include <limits>

#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

struct ProblemOutcome {
  Point location;
  double cost = 0.0;
  bool solved = false;
};

}  // namespace

BatchResult SolveFermatWeberBatch(
    const std::vector<std::vector<WeightedPoint>>& problems,
    const BatchOptions& options) {
  MOVD_CHECK_MSG(!problems.empty(),
                 "the batch solver needs at least one problem");
  BatchResult result;

  // The §5.4 global cost bound, shared by all workers. It only decreases
  // (CAS-min), so a worker reading a stale value merely prunes less.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};
  std::vector<ProblemOutcome> outcomes(problems.size());
  std::atomic<uint64_t> total_iterations{0};
  std::atomic<uint64_t> pruned_by_bound{0};
  std::atomic<uint64_t> skipped_by_prefilter{0};

  const Trace::Context trace_ctx = Trace::CaptureContext();
  ParallelFor(options.exec.threads, problems.size(), [&](size_t i) {
    const std::vector<WeightedPoint>& points = problems[i];
    MOVD_CHECK(!points.empty());
    TraceContextScope trace_scope(trace_ctx);
    TraceSpan span("fermat_batch_problem");

    // Strict >: a prefix that exactly ties the bound cannot disprove a tie
    // with the current best, so the problem still runs and the winner stays
    // a pure (cost, index) decision.
    if (options.use_two_point_prefilter && points.size() > 3 &&
        TwoPointPrefixCost(points) > bound.load(std::memory_order_relaxed)) {
      skipped_by_prefilter.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    FermatWeberOptions fw;
    fw.epsilon = options.epsilon;
    if (options.use_cost_bound) fw.shared_cost_bound = &bound;
    const FermatWeberResult r = SolveFermatWeber(points, fw);
    total_iterations.fetch_add(static_cast<uint64_t>(r.iterations),
                               std::memory_order_relaxed);
    span.Counter("weiszfeld_iters", r.iterations);
    if (r.pruned) {
      pruned_by_bound.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    outcomes[i] = {r.location, r.cost, true};
    AtomicMinDouble(&bound, r.cost);
  });

  result.total_iterations = total_iterations.load();
  result.pruned_by_bound = pruned_by_bound.load();
  result.skipped_by_prefilter = skipped_by_prefilter.load();

  // Deterministic reduction: minimum cost, lowest index on ties. Any
  // problem tying the global minimum is never pruned (its lower bound can
  // never strictly exceed the bound), so every tied candidate is present
  // here regardless of scheduling.
  bool have_answer = false;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ProblemOutcome& o = outcomes[i];
    if (!o.solved) continue;
    if (!have_answer || o.cost < result.cost) {
      have_answer = true;
      result.cost = o.cost;
      result.location = o.location;
      result.winner = i;
    }
  }
  MOVD_CHECK(have_answer);
  return result;
}

}  // namespace movd
