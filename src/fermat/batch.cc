#include "fermat/batch.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "trace/trace.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

// A chunk is the unit of work claimed by a worker, of cancel polling and
// of tracing: at least kMinChunk problems, so that its span and counter
// updates are noise next to its solves, and at most ~kMaxChunks chunks per
// scan, so that a scan of 10^5 problems records a few hundred spans.
constexpr size_t kMinChunk = 64;
constexpr size_t kMaxChunks = 256;

// The k best answers so far, a heap whose front is the k-th best under
// `better`, and the shared bound it publishes.
class BestK {
 public:
  BestK(size_t k, const ProblemTieOrder& tie_order)
      : k_(k), tie_order_(tie_order) {}

  // Ascending (cost, tie order, index): a strict total order, so the kept
  // set and its order do not depend on the order answers arrive in.
  bool Better(const BatchAnswer& a, const BatchAnswer& b) const {
    if (a.cost != b.cost) return a.cost < b.cost;
    if (tie_order_(a.problem, b.problem)) return true;
    if (tie_order_(b.problem, a.problem)) return false;
    return a.problem < b.problem;
  }

  // Keeps `a` if it is among the k best so far; the bound becomes the k-th
  // best cost once k answers are held. The bound only ever decreases.
  void Offer(const BatchAnswer& a, std::atomic<double>* bound)
      MOVD_EXCLUDES(mu_) {
    const auto better = [this](const BatchAnswer& x, const BatchAnswer& y) {
      return Better(x, y);
    };
    MutexLock lock(mu_);
    if (heap_.size() < k_) {
      heap_.push_back(a);
      std::push_heap(heap_.begin(), heap_.end(), better);
    } else if (Better(a, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), better);
      heap_.back() = a;
      std::push_heap(heap_.begin(), heap_.end(), better);
    }
    if (heap_.size() == k_) {
      bound->store(heap_.front().cost, std::memory_order_relaxed);
    }
  }

  // The kept answers, ascending. Better is total, so the order is unique.
  std::vector<BatchAnswer> TakeSorted() MOVD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::sort_heap(heap_.begin(), heap_.end(),
                   [this](const BatchAnswer& x, const BatchAnswer& y) {
                     return Better(x, y);
                   });
    return std::move(heap_);
  }

 private:
  const size_t k_;
  const ProblemTieOrder& tie_order_;
  Mutex mu_;
  std::vector<BatchAnswer> heap_ MOVD_GUARDED_BY(mu_);
};

}  // namespace

BatchResult ScanBestK(size_t n, const ProblemBuilder& build,
                      const ProblemTieOrder& tie_order, size_t k,
                      const BatchOptions& options) {
  MOVD_CHECK_MSG(n > 0 && k > 0,
                 "a best-k scan needs at least one problem and k >= 1");
  BatchResult result;
  BestK best(k, tie_order);
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> problems{0};
  std::atomic<uint64_t> skipped_prefilter{0};
  std::atomic<uint64_t> pruned_by_bound{0};
  std::atomic<uint64_t> total_iterations{0};

  const size_t chunk = std::max(kMinChunk, (n + kMaxChunks - 1) / kMaxChunks);
  const Trace::Context trace_ctx = Trace::CaptureContext();
  ParallelFor(options.exec.threads, (n + chunk - 1) / chunk, [&](size_t c) {
    // The token latches, so after it fires every worker drains its
    // remaining chunks without doing work.
    if (TokenExpired(options.exec.cancel)) return;
    // Pool threads have no ambient trace; re-install the caller's so the
    // chunk spans parent under the caller's stage span.
    TraceContextScope trace_scope(trace_ctx);
    TraceSpan span("fermat_scan_chunk");
    BatchStats local;
    std::vector<WeightedPoint> points;
    FermatWeberOptions fw;
    fw.epsilon = options.epsilon;
    fw.cancel = options.exec.cancel;
    if (options.use_cost_bound) fw.shared_cost_bound = &bound;
    const size_t end = std::min(n, (c + 1) * chunk);
    for (size_t i = c * chunk; i < end; ++i) {
      ++local.problems;
      const double offset = build(i, &points);
      // With more than two points the prefix is a strict sub-problem, so
      // its optimum plus the offset bounds the total cost from below.
      // Strict >, as in the solver: a prefix tying the bound cannot rule
      // out a tie with the k-th best.
      if (options.use_two_point_prefilter && points.size() > 2 &&
          offset + TwoPointPrefixCost(points) >
              bound.load(std::memory_order_relaxed)) {
        ++local.skipped_prefilter;
        continue;
      }
      // The solver sees pure Fermat–Weber costs; it shifts its lower bound
      // by this problem's offset before comparing.
      fw.shared_bound_offset = offset;
      const FermatWeberResult r = SolveFermatWeber(points, fw);
      local.total_iterations += static_cast<uint64_t>(r.iterations);
      if (r.cancelled) break;  // not an answer; the scan is discarded
      if (r.pruned) {
        ++local.pruned_by_bound;
        continue;
      }
      const BatchAnswer answer{i, r.location, r.cost + offset};
      if (answer.cost <= bound.load(std::memory_order_relaxed)) {
        best.Offer(answer, &bound);
      }
    }
    problems.fetch_add(local.problems, std::memory_order_relaxed);
    skipped_prefilter.fetch_add(local.skipped_prefilter,
                                std::memory_order_relaxed);
    pruned_by_bound.fetch_add(local.pruned_by_bound,
                              std::memory_order_relaxed);
    total_iterations.fetch_add(local.total_iterations,
                               std::memory_order_relaxed);
    span.Counter("problems", static_cast<int64_t>(local.problems));
    span.Counter("skipped_prefilter",
                 static_cast<int64_t>(local.skipped_prefilter));
    span.Counter("pruned_by_bound",
                 static_cast<int64_t>(local.pruned_by_bound));
    span.Counter("total_iterations",
                 static_cast<int64_t>(local.total_iterations));
  });

  result.stats.problems = problems.load();
  result.stats.skipped_prefilter = skipped_prefilter.load();
  result.stats.pruned_by_bound = pruned_by_bound.load();
  result.stats.total_iterations = total_iterations.load();
  // A fired token means an unknown subset of problems was skipped: the
  // partial best could be wrong, so nothing is returned.
  if (TokenExpired(options.exec.cancel)) {
    result.cancelled = true;
    return result;
  }
  result.best = best.TakeSorted();
  return result;
}

BatchResult SolveFermatWeberBatch(
    const std::vector<std::vector<WeightedPoint>>& problems,
    const BatchOptions& options) {
  MOVD_CHECK_MSG(!problems.empty(),
                 "the batch solver needs at least one problem");
  return ScanBestK(
      problems.size(),
      [&](size_t i, std::vector<WeightedPoint>* points) {
        *points = problems[i];
        return 0.0;
      },
      [](size_t a, size_t b) { return a < b; }, 1, options);
}

}  // namespace movd
