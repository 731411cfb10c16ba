#ifndef MOVD_FERMAT_FERMAT_WEBER_H_
#define MOVD_FERMAT_FERMAT_WEBER_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/point.h"
#include "util/cancel.h"

namespace movd {

/// A Fermat–Weber demand point: a location and a positive weight. In the
/// MOLQ pipeline the weight is the (type-)weighted coefficient the paper's
/// cost function (Eq. 7) attaches to each object.
struct WeightedPoint {
  Point location;
  double weight = 1.0;
};

/// The Fermat–Weber cost c(q, G) = sum_i w_i * d(q, p_i)   (paper Eq. 7).
double FermatWeberCost(const std::vector<WeightedPoint>& points,
                       const Point& q);

/// Lower bound on the optimal cost, evaluated at iterate `at` (paper
/// Eq. 10): per coordinate axis, the exact optimum of a 1-D weighted median
/// problem whose weights are the projections of the unit vectors from `at`
/// to the demand points. Always <= min_q c(q, G).
double FermatWeberLowerBound(const std::vector<WeightedPoint>& points,
                             const Point& at);

/// If all demand points are collinear, returns the exact optimum (weighted
/// median along the line, linear-time after sort); otherwise nullopt.
std::optional<Point> SolveCollinear(const std::vector<WeightedPoint>& points);

/// Exact optimal cost of the two-point prefix subproblem on points[0] and
/// points[1] (0 with fewer than two points): the optimum sits at the
/// heavier point, so the cost is min(w1, w2) * d. A lower bound on the
/// full problem's optimum, because dropping demand points can only lower
/// it — the prefilter of Algorithm 1 lines 4-5 and Algorithm 5 lines 8-12.
double TwoPointPrefixCost(const std::vector<WeightedPoint>& points);

/// Options for the iterative (Weiszfeld) solver.
struct FermatWeberOptions {
  /// Relative error bound epsilon: stop when (cost - lb) / lb <= epsilon,
  /// the paper's stopping rule with the optimum approximated by Eq. 10.
  double epsilon = 1e-3;

  /// Hard iteration cap (safety net; the stopping rule fires first).
  int max_iterations = 100000;

  /// Global cost bound (Algorithm 5, §5.4 across threads): when set,
  /// every iteration reloads the current bound and prunes when
  ///   lower_bound + shared_bound_offset > *shared_cost_bound.
  /// Strictly greater, so a problem whose optimum exactly ties the bound
  /// still completes — ties are then resolved deterministically by the
  /// best-k scan's (cost, tie order) ranking (fermat/batch.h), independent
  /// of thread arrival order. `shared_bound_offset` is the constant term of
  /// the caller's weighted-distance decomposition, which the bound tracks
  /// but this solver does not see.
  const std::atomic<double>* shared_cost_bound = nullptr;
  double shared_bound_offset = 0.0;

  /// Serving deadlines: polled every 256 Weiszfeld iterations. A fired
  /// token stops the solve with `cancelled` set; its location and cost are
  /// then not an answer, and the caller must discard them (every caller
  /// re-checks its token after its scan).
  const CancelToken* cancel = nullptr;

  /// When true (default), problems of size 3 / collinear problems are
  /// routed to the exact solvers, as the paper prescribes (§5.4).
  bool use_exact_special_cases = true;

  /// Over-relaxation factor for the Weiszfeld step (Ostresh 1978 proves
  /// convergence for factors in (0, 2]): the iterate moves
  /// q + relaxation * (T(q) - q). 1.0 is the paper's plain iteration;
  /// ~1.8 roughly halves the iteration count. Steps that fail to decrease
  /// the cost fall back to the plain step, preserving monotonicity.
  double relaxation = 1.0;
};

/// Result of one Fermat–Weber solve.
struct FermatWeberResult {
  Point location;
  double cost = 0.0;
  /// Weiszfeld iterations executed (0 for exact special cases unless a
  /// triangle took the fallback of SolveTriangle).
  int iterations = 0;
  /// True when the epsilon stopping rule was satisfied.
  bool converged = false;
  /// True when iteration stopped early because the lower bound crossed
  /// options.shared_cost_bound; `location`/`cost` hold the last iterate.
  bool pruned = false;
  /// True when options.cancel fired mid-iteration: not an answer.
  bool cancelled = false;
};

/// Exact solution of the three-point problem for any positive weights.
/// Vertex optima are detected by the weighted optimality test
/// |sum_{i != j} w_i u_i| <= w_j; interior optima come in closed form from
/// Launhardt's pole construction. A point failing a cheap optimality check
/// gets at most 64 Weiszfeld steps, counted in `iterations`.
FermatWeberResult SolveTriangle(const std::vector<WeightedPoint>& points);

/// Solves one Fermat–Weber problem with the modified Weiszfeld iteration
/// (Eq. 8/9; Vardi–Zhang step when an iterate coincides with a demand
/// point). Requires at least one point; equal points are handled.
FermatWeberResult SolveFermatWeber(const std::vector<WeightedPoint>& points,
                                   const FermatWeberOptions& options = {});

}  // namespace movd

#endif  // MOVD_FERMAT_FERMAT_WEBER_H_
