#include "core/ssc.h"

#include <atomic>
#include <limits>

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"

namespace movd {

SscResult SolveSsc(const MolqQuery& query, const SscOptions& options) {
  const size_t n = query.sets.size();
  MOVD_CHECK_MSG(n > 0, "a MOLQ needs at least one object set");
  for (const ObjectSet& set : query.sets) {
    MOVD_CHECK_MSG(!set.objects.empty(),
                   "every query set needs at least one object");
  }

  SscResult result;
  TraceSpan span("ssc_scan");
  // Atomic so the solver's strict shared-bound prune (the same tie-keeping
  // semantics the RRB/MBRB Optimizer uses) can read it; SSC itself is
  // serial, so plain loads/stores below never race.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};
  bool have_answer = false;

  std::vector<PoiRef> combo;
  for (size_t i = 0; i < n; ++i) combo.push_back({static_cast<int32_t>(i), 0});
  std::vector<WeightedPoint> points;

  // Odometer enumeration of P_1 x ... x P_n.
  bool done = false;
  while (!done) {
    // Cancellation checkpoint (serving deadlines): one poll per
    // combination, i.e. per Fermat–Weber problem — coarse enough that the
    // clock read never dominates, fine enough that a fired deadline stops
    // the scan within one solve.
    if (TokenExpired(options.exec.cancel)) {
      result.cancelled = true;
      return result;
    }
    ++result.stats.combinations;
    const double offset = BuildFermatWeberProblem(query, combo, &points);

    bool skip = false;
    if (options.use_upper_bound_prune && n > 2) {
      // Exact two-point optimum of <p_1^u, p_2^s> (Algorithm 1 line 4) plus
      // the combination's constant offsets: a lower bound on the full
      // combination's optimal cost. Strictly greater, matching the
      // Optimizer's prefilter: a prefix that exactly ties the bound cannot
      // improve on it, but skipping on ties would make SSC and RRB/MBRB
      // disagree about tie-cost optima.
      if (offset + TwoPointPrefixCost(points) >
          bound.load(std::memory_order_relaxed)) {
        ++result.stats.skipped_prefilter;
        skip = true;
      }
    }

    if (!skip) {
      FermatWeberOptions fw;
      fw.epsilon = options.epsilon;
      fw.cancel = options.exec.cancel;
      if (options.use_cost_bound) {
        fw.shared_cost_bound = &bound;
        fw.shared_bound_offset = offset;
      }
      const FermatWeberResult r = SolveFermatWeber(points, fw);
      result.stats.total_iterations += static_cast<uint64_t>(r.iterations);
      if (r.pruned) {
        ++result.stats.pruned_by_bound;
      } else {
        // Exact ties go to the lexicographically least combination, the
        // GroupBefore rule of the MOVD optimizer.
        const double total = r.cost + offset;
        if (!have_answer || total < result.cost ||
            (total == result.cost && combo < result.group)) {
          have_answer = true;
          bound.store(total, std::memory_order_relaxed);
          result.cost = total;
          result.location = r.location;
          result.group = combo;
        }
      }
    }

    // Advance the odometer.
    size_t i = 0;
    while (i < n) {
      if (++combo[i].object <
          static_cast<int32_t>(query.sets[i].objects.size())) {
        break;
      }
      combo[i].object = 0;
      ++i;
    }
    done = i == n;
  }
  // The last solve may have stopped on the token without an answer.
  if (TokenExpired(options.exec.cancel)) {
    result.cancelled = true;
    return result;
  }
  MOVD_CHECK(have_answer);
  span.Counter("combinations",
               static_cast<int64_t>(result.stats.combinations));
  span.Counter("weiszfeld_iters",
               static_cast<int64_t>(result.stats.total_iterations));
  return result;
}

}  // namespace movd
