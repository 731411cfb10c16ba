#include "query/candidates.h"

#include "core/weighted_distance.h"
#include "fermat/fermat_weber.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {

std::vector<double> CandidateCriteria(const MolqQuery& query,
                                      const std::vector<PoiRef>& group,
                                      const Point& location) {
  std::vector<double> criteria;
  criteria.reserve(group.size());
  for (const PoiRef& ref : group) {
    const SpatialObject& obj = query.sets.at(ref.set).objects.at(ref.object);
    const FermatWeberTerm term = DecomposeWeightedDistance(
        obj, query.type_function, query.ObjectFunction(ref.set));
    criteria.push_back(term.fw_weight * Distance(location, obj.location) +
                       term.offset);
  }
  return criteria;
}

StatusCode EnumerateCandidates(const MolqQuery& query, const Movd& movd,
                               const CandidateOptions& options,
                               std::vector<SiteCandidate>* out) {
  MOVD_CHECK_MSG(out != nullptr && options.epsilon > 0.0,
                 "candidate enumeration needs an output vector and "
                 "epsilon > 0");
  out->clear();
  TraceContextScope trace_scope(options.exec.trace);
  TraceSpan span("query_candidates");

  // One candidate per OVR: the overlay holds each combination once, and
  // each worker writes only its own slot.
  std::vector<SiteCandidate> candidates(movd.ovrs.size());
  const Trace::Context ctx = Trace::CaptureContext();
  ParallelFor(ResolveThreads(options.exec.threads), movd.ovrs.size(),
              [&](size_t i) {
                if (TokenExpired(options.exec.cancel)) return;
                TraceContextScope scope(ctx);
                const std::vector<PoiRef>& group = movd.ovrs[i].pois;
                MOVD_CHECK(!group.empty());
                std::vector<WeightedPoint> points;
                const double offset =
                    BuildFermatWeberProblem(query, group, &points);
                FermatWeberOptions fw;
                fw.epsilon = options.epsilon;
                fw.cancel = options.exec.cancel;
                const FermatWeberResult r = SolveFermatWeber(points, fw);
                SiteCandidate& c = candidates[i];
                c.location = r.location;
                c.cost = r.cost + offset;
                c.group = group;
                c.criteria = CandidateCriteria(query, group, r.location);
              });
  // The token latches, so a solve it cut short is caught here.
  if (TokenExpired(options.exec.cancel)) return StatusCode::kCancelled;
  span.Counter("candidates", static_cast<int64_t>(candidates.size()));
  *out = std::move(candidates);
  return StatusCode::kOk;
}

}  // namespace movd
