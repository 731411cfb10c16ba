#ifndef MOVD_CORE_SSC_H_
#define MOVD_CORE_SSC_H_

#include <cstdint>
#include <vector>

#include "model/object.h"
#include "geom/point.h"
#include "util/exec_options.h"

namespace movd {

/// Options for the Sequential Scan Combinations baseline (paper §3).
struct SscOptions {
  /// Stopping-rule error bound for each Fermat–Weber problem.
  double epsilon = 1e-3;

  /// Algorithm 1 lines 4-5: the exact two-point-prefix upper-bound filter.
  bool use_upper_bound_prune = true;

  /// Apply the cost-bound iteration cut of §5.4 inside each Fermat–Weber
  /// solve ("The Cost-bound approach can be used in the SSC solution as
  /// well"); the paper's Figs. 8-9 run SSC with it enabled.
  bool use_cost_bound = true;

  /// Shared execution knobs (util/exec_options.h). Only `exec.cancel` and
  /// `exec.trace` apply — the scan itself is serial (`exec.threads` is
  /// ignored; the per-problem solver is the unit of work). The cancel
  /// token is polled once per combination and every 256 Weiszfeld
  /// iterations inside a solve: when it fires the scan stops and
  /// SscResult::cancelled is set — the partially-scanned best answer is
  /// NOT returned.
  ExecOptions exec;
};

/// Counters for SSC.
struct SscStats {
  uint64_t combinations = 0;       ///< cartesian-product size visited
  uint64_t skipped_prefilter = 0;  ///< filtered by the two-point bound
  uint64_t pruned_by_bound = 0;    ///< iteration-pruned problems
  uint64_t total_iterations = 0;   ///< Weiszfeld iterations in total
};

/// Result of an SSC run.
struct SscResult {
  /// True when options.cancel fired before the scan finished; the answer
  /// fields are then unset.
  bool cancelled = false;
  Point location;
  double cost = 0.0;
  /// Winning object combination, one PoiRef per set in set order. Exact
  /// cost ties go to the lexicographically least combination.
  std::vector<PoiRef> group;
  SscStats stats;
};

/// Solves MOLQ by scanning all object combinations P_1 x ... x P_n
/// (Algorithm 1). Exact up to the Fermat–Weber stopping rule; exponential
/// in the number of sets. Every set must be non-empty.
SscResult SolveSsc(const MolqQuery& query, const SscOptions& options = {});

}  // namespace movd

#endif  // MOVD_CORE_SSC_H_
