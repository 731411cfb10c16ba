#ifndef MOVD_FERMAT_BATCH_H_
#define MOVD_FERMAT_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "fermat/fermat_weber.h"
#include "util/exec_options.h"

namespace movd {

/// Options for the multi-problem Fermat–Weber scan (paper §5.4).
struct BatchOptions {
  /// Stopping-rule error bound for each problem.
  double epsilon = 1e-3;

  /// Algorithm 5's global cost bound: the k-th best total cost found so
  /// far caps every later solve (per-iteration lower-bound pruning). When
  /// false, every problem is solved to its own stopping rule ("Original"
  /// in Fig. 10).
  bool use_cost_bound = true;

  /// Algorithm 5 lines 8-12 / Algorithm 1 lines 4-5: skip a problem of
  /// more than two points when the exact optimum of its two-point prefix,
  /// plus its offset, already exceeds the bound. Independent toggle for
  /// ablation.
  bool use_two_point_prefilter = true;

  /// Shared execution knobs (util/exec_options.h). `exec.threads` fans
  /// fixed-size chunks of problems out over workers that share the bound;
  /// at one thread the problems run in index order. The answers are
  /// identical for every thread count, though the counters may vary with
  /// timing. `exec.cancel` is polled once per chunk and every 256 Weiszfeld
  /// iterations inside a solve; when it fires the scan stops and
  /// BatchResult::cancelled is set (no partial answer is returned).
  /// `exec.trace` gets one span per chunk carrying the chunk's counters.
  ExecOptions exec;
};

/// What one scan did.
struct BatchStats {
  uint64_t problems = 0;           ///< problems examined
  uint64_t skipped_prefilter = 0;  ///< skipped by the two-point prefilter
  uint64_t pruned_by_bound = 0;    ///< solves cut by the cost bound
  uint64_t total_iterations = 0;   ///< Weiszfeld iterations in total
};

/// One of the k best problems.
struct BatchAnswer {
  size_t problem = 0;  ///< index of the problem
  Point location;      ///< its optimal location
  double cost = 0.0;   ///< its Fermat–Weber cost plus its offset
};

/// Result of a scan.
struct BatchResult {
  /// True when options.exec.cancel fired; `best` is then empty.
  bool cancelled = false;
  /// The min(k, n) best problems, ascending by (cost, tie order).
  std::vector<BatchAnswer> best;
  BatchStats stats;
};

/// Replaces `*points` with problem `i`'s demand points (at least one) and
/// returns the problem's constant offset, which is added to its
/// Fermat–Weber cost. A chunk is a run of consecutive indices that one
/// worker builds in ascending order into one buffer; chunks run
/// concurrently.
using ProblemBuilder =
    std::function<double(size_t i, std::vector<WeightedPoint>* points)>;

/// Strict order on problem indices that decides exact cost ties. Problems
/// it leaves unordered fall back to index order.
using ProblemTieOrder = std::function<bool(size_t a, size_t b)>;

/// Algorithm 5 over n problems: solves each one and keeps the k best by
/// (total cost, tie order). The bound shared by all workers is the k-th
/// best total cost so far; both the prefilter and the in-iteration prune
/// compare strictly against it, so a problem tying the final k-th best is
/// always solved to completion. A solve the bound does not stop follows
/// the same iterate path as an unbounded one, so the answers are
/// bit-identical to solving every problem without a bound and sorting.
/// This is the one scan behind the Optimizer, top-k, SSC and the batch.
BatchResult ScanBestK(size_t n, const ProblemBuilder& build,
                      const ProblemTieOrder& tie_order, size_t k,
                      const BatchOptions& options = {});

/// Fig. 10's batch: ScanBestK with k = 1 over the given problems, each
/// with offset 0, exact ties to the lowest index.
BatchResult SolveFermatWeberBatch(
    const std::vector<std::vector<WeightedPoint>>& problems,
    const BatchOptions& options = {});

}  // namespace movd

#endif  // MOVD_FERMAT_BATCH_H_
