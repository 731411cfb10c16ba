#include "core/optimizer.h"

#include "core/weighted_distance.h"
#include "model/query_model.h"
#include "util/check.h"

namespace movd {

OptimizerResult OptimizeMovd(const MolqQuery& query, const Movd& movd,
                             const OptimizerOptions& options) {
  MOVD_CHECK_MSG(!movd.ovrs.empty(),
                 "the Optimizer needs a non-empty MOVD to scan");
  const BatchResult scan = ScanBestK(
      movd.ovrs.size(),
      [&](size_t i, std::vector<WeightedPoint>* points) {
        return BuildFermatWeberProblem(query, movd.ovrs[i].pois, points);
      },
      [&](size_t a, size_t b) {
        return GroupBefore(movd.ovrs[a].pois, movd.ovrs[b].pois);
      },
      1, options);
  OptimizerResult result;
  result.cancelled = scan.cancelled;
  result.stats = scan.stats;
  if (scan.cancelled) return result;
  MOVD_CHECK(!scan.best.empty());
  const BatchAnswer& best = scan.best.front();
  result.location = best.location;
  result.cost = best.cost;
  result.group = movd.ovrs[best.problem].pois;
  return result;
}

}  // namespace movd
