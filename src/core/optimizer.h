#ifndef MOVD_CORE_OPTIMIZER_H_
#define MOVD_CORE_OPTIMIZER_H_

#include <vector>

#include "fermat/batch.h"
#include "model/movd_model.h"
#include "model/object.h"

namespace movd {

/// Options for the MOVD Optimizer stage (paper §5.4, Algorithm 5): the
/// scan's options (fermat/batch.h) — epsilon, the cost bound, the
/// two-point prefilter and the execution knobs.
struct OptimizerOptions : BatchOptions {
  /// A no-op: every overlay the library builds holds each combination in
  /// one OVR (model/movd_model.h), so there is nothing to collapse. Kept
  /// so drivers that still set it compile.
  bool dedup_combinations = false;
};

/// Counters for the Optimizer stage: the scan's (problems examined,
/// skipped by the prefilter, pruned by the bound, Weiszfeld iterations).
using OptimizerStats = BatchStats;

/// Result of optimizing one MOVD.
struct OptimizerResult {
  /// True when options.exec.cancel fired before every problem was
  /// examined; the answer fields are then unset.
  bool cancelled = false;
  Point location;           ///< the best locally-optimal location
  double cost = 0.0;        ///< its WGD against its OVR's object group
  std::vector<PoiRef> group;  ///< the winning object combination
  OptimizerStats stats;
};

/// Scans the OVRs of `movd`, solves the Fermat–Weber problem induced by
/// each OVR's object group (object weights folded into the distance, type
/// weights into the point weights — see BuildFermatWeberProblem), and
/// returns the best local optimum (the framework's Optimizer stage,
/// Fig. 3): ScanBestK with k = 1. Exact cost ties go to the
/// GroupBefore-least group (model/query_model.h), the tie rule top-k and
/// every query shape use, so the answer does not depend on the MOVD's OVR
/// order or on the thread count. Requires a non-empty MOVD whose OVRs have
/// non-empty poi lists; like every optimizer stage it assumes the overlay
/// invariant of model/movd_model.h (one OVR per poi combination), so each
/// OVR is one Fermat–Weber problem.
OptimizerResult OptimizeMovd(const MolqQuery& query, const Movd& movd,
                             const OptimizerOptions& options = {});

}  // namespace movd

#endif  // MOVD_CORE_OPTIMIZER_H_
