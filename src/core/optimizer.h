#ifndef MOVD_CORE_OPTIMIZER_H_
#define MOVD_CORE_OPTIMIZER_H_

#include <cstdint>

#include "model/movd_model.h"
#include "model/object.h"
#include "util/exec_options.h"

namespace movd {

/// Options for the MOVD Optimizer stage (paper §5.4, Algorithm 5).
struct OptimizerOptions {
  /// Stopping-rule error bound for each Fermat–Weber problem.
  double epsilon = 1e-3;

  /// Algorithm 5's global cost bound with per-iteration lower-bound cuts.
  bool use_cost_bound = true;

  /// Algorithm 5 lines 8-12: exact two-point-prefix filter.
  bool use_two_point_prefilter = true;

  /// A no-op: every overlay the library builds holds each combination in
  /// one OVR (model/movd_model.h), so there is nothing to collapse. Kept
  /// so drivers that still set it compile.
  bool dedup_combinations = false;

  /// Shared execution knobs (util/exec_options.h). `exec.threads` fans the
  /// per-OVR Fermat–Weber solves out over workers sharing the §5.4 cost
  /// bound through an atomic CAS-min; the returned (location, cost, group)
  /// is identical for every thread count — the winner is resolved by a
  /// (cost, group) reduction, never by arrival order — though
  /// iteration/prune counters may vary with timing. `exec.cancel` is
  /// polled once per OVR (on the claiming worker) and every 256 Weiszfeld
  /// iterations inside a solve: when it fires, remaining OVRs are skipped
  /// and OptimizerResult::cancelled is set — the partial best is NOT
  /// returned. `exec.trace` spans each OVR solve.
  ExecOptions exec;
};

/// Counters for the Optimizer stage.
struct OptimizerStats {
  uint64_t problems = 0;            ///< OVRs examined
  uint64_t deduped = 0;             ///< always 0 (see dedup_combinations)
  uint64_t skipped_prefilter = 0;   ///< skipped by the two-point filter
  uint64_t pruned_by_bound = 0;     ///< iterations cut by the cost bound
  uint64_t total_iterations = 0;    ///< Weiszfeld iterations in total
};

/// Result of optimizing one MOVD.
struct OptimizerResult {
  /// True when options.cancel fired before every OVR was examined; the
  /// answer fields are then unset.
  bool cancelled = false;
  Point location;           ///< the best locally-optimal location
  double cost = 0.0;        ///< its WGD against its OVR's object group
  std::vector<PoiRef> group;  ///< the winning object combination
  OptimizerStats stats;
};

/// Scans the OVRs of `movd`, solves the Fermat–Weber problem induced by
/// each OVR's object group (object weights folded into the distance, type
/// weights into the point weights — see DecomposeWeightedDistance), and
/// returns the best local optimum (the framework's Optimizer stage,
/// Fig. 3). Exact cost ties go to the GroupBefore-least group
/// (model/query_model.h), the tie rule top-k and every query shape use, so
/// the answer does not depend on the MOVD's OVR order. Requires a
/// non-empty MOVD whose OVRs have non-empty poi lists; like every optimizer
/// stage it assumes the overlay invariant of model/movd_model.h (one OVR
/// per poi combination), so each OVR is one Fermat–Weber problem.
OptimizerResult OptimizeMovd(const MolqQuery& query, const Movd& movd,
                             const OptimizerOptions& options = {});

}  // namespace movd

#endif  // MOVD_CORE_OPTIMIZER_H_
