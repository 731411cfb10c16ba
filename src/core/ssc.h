#ifndef MOVD_CORE_SSC_H_
#define MOVD_CORE_SSC_H_

#include "core/optimizer.h"
#include "model/object.h"

namespace movd {

/// Solves MOLQ by scanning all object combinations P_1 x ... x P_n
/// (Sequential Scan Combinations, paper §3, Algorithm 1): ScanBestK with
/// k = 1 over the combinations in odometer order (set 0 fastest), so the
/// two-point prefilter (`use_two_point_prefilter`, Algorithm 1 lines 4-5)
/// and the §5.4 cost bound ("The Cost-bound approach can be used in the
/// SSC solution as well"; the paper's Figs. 8-9 run SSC with it) are the
/// Optimizer's, and `exec.threads` fans the combinations out. The winning
/// group holds one PoiRef per set in set order; exact cost ties go to the
/// GroupBefore-least (lexicographically least) combination, as in the
/// Optimizer. Cancellation and counters as OptimizeMovd. Exact up to the
/// Fermat–Weber stopping rule; exponential in the number of sets. Every
/// set must be non-empty.
OptimizerResult SolveSsc(const MolqQuery& query,
                         const OptimizerOptions& options = {});

}  // namespace movd

#endif  // MOVD_CORE_SSC_H_
