#include "query/candidates.h"

#include <atomic>
#include <set>

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

  // Distinct combinations in first-seen OVR order; the scan order of a
  // given MOVD is deterministic, so so is the slot assignment below.
  std::set<std::vector<PoiRef>> seen;
  std::vector<const std::vector<PoiRef>*> groups;
  for (const Ovr& ovr : movd.ovrs) {
    MOVD_CHECK(!ovr.pois.empty());
    if (!seen.insert(ovr.pois).second) continue;
    groups.push_back(&ovr.pois);
  }

  std::vector<SiteCandidate> candidates(groups.size());
  std::atomic<bool> cancelled{false};
  const Trace::Context ctx = Trace::CaptureContext();
  ParallelFor(ResolveThreads(options.exec.threads), groups.size(),
              [&](size_t i) {
                if (cancelled.load(std::memory_order_relaxed)) return;
                if (TokenExpired(options.exec.cancel)) {
                  cancelled.store(true, std::memory_order_relaxed);
                  return;
                }
                TraceContextScope scope(ctx);
                const std::vector<PoiRef>& group = *groups[i];
                std::vector<WeightedPoint> points;
                points.reserve(group.size());
                double offset = 0.0;
                for (const PoiRef& ref : group) {
                  const SpatialObject& obj =
                      query.sets.at(ref.set).objects.at(ref.object);
                  const FermatWeberTerm term = DecomposeWeightedDistance(
                      obj, query.type_function,
                      query.ObjectFunction(ref.set));
                  points.push_back({obj.location, term.fw_weight});
                  offset += term.offset;
                }
                FermatWeberOptions fw;
                fw.epsilon = options.epsilon;
                const FermatWeberResult r = SolveFermatWeber(points, fw);
                SiteCandidate& c = candidates[i];
                c.location = r.location;
                c.cost = r.cost + offset;
                c.group = group;
                c.criteria = CandidateCriteria(query, group, r.location);
              });
  if (cancelled.load(std::memory_order_relaxed)) {
    return StatusCode::kCancelled;
  }
  span.Counter("candidates", static_cast<int64_t>(candidates.size()));
  *out = std::move(candidates);
  return StatusCode::kOk;
}

}  // namespace movd
