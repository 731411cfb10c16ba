#include "query/whatif.h"

#include "core/topk.h"
#include "query/candidates.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {

WhatIfSweepResult WhatIfSweepFromMovd(const MolqQuery& base, const Movd& movd,
                                      const std::vector<WhatIfVector>& vectors,
                                      const WhatIfOptions& options) {
  MOVD_CHECK_MSG(!movd.ovrs.empty() && options.topk >= 1 &&
                     options.epsilon > 0.0,
                 "a what-if sweep needs a non-empty MOVD, topk >= 1 and "
                 "epsilon > 0");
  WhatIfSweepResult result;
  TraceContextScope trace_scope(options.exec.trace);
  TraceSpan span("query_whatif");
  for (const WhatIfVector& v : vectors) {
    MOVD_CHECK_MSG(ValidateWhatIfVector(base, v).ok(),
                   "every what-if vector must validate against the base "
                   "query (callers pre-check with ValidateWhatIfVector)");
  }

  std::vector<std::vector<SiteCandidate>> per_vector(vectors.size());
  const Trace::Context ctx = Trace::CaptureContext();
  ParallelFor(ResolveThreads(options.exec.threads), vectors.size(),
              [&](size_t i) {
                if (TokenExpired(options.exec.cancel)) return;
                TraceContextScope scope(ctx);
                const MolqQuery scaled = ApplyWhatIfVector(base, vectors[i]);
                MolqOptions mo;
                mo.epsilon = options.epsilon;
                // The sweep vector is the parallel grain: each inner
                // ranking runs single-threaded so its answer never depends
                // on the outer thread count.
                mo.exec.threads = 1;
                mo.exec.cancel = options.exec.cancel;
                MolqResult ranked =
                    TopKFromMovd(scaled, movd, options.topk, mo);
                if (ranked.status != StatusCode::kOk) return;
                for (SiteCandidate& c : ranked.ranked) {
                  c.criteria = CandidateCriteria(scaled, c.group, c.location);
                }
                per_vector[i] = std::move(ranked.ranked);
              });
  // The token latches, so a ranking it cut short is caught here.
  if (TokenExpired(options.exec.cancel)) {
    result.status = StatusCode::kCancelled;
    return result;
  }
  result.per_vector = std::move(per_vector);
  span.Counter("vectors", static_cast<int64_t>(vectors.size()));
  span.Counter("topk", static_cast<int64_t>(options.topk));
  return result;
}

}  // namespace movd
