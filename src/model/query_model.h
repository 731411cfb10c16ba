#ifndef MOVD_MODEL_QUERY_MODEL_H_
#define MOVD_MODEL_QUERY_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/rect.h"
#include "model/object.h"
#include "util/status.h"

namespace movd {

/// Typed requests/results of the query algebra (src/query; DESIGN.md §13).
///
/// Like the Movd structs, these are pure data: the evaluators live in
/// src/query and the re-check validators in src/audit, and neither may see
/// the other's headers — so the shared vocabulary (candidates, constraint
/// geometry, tie-rule comparators) lives here, below both.

/// A locally-optimal candidate site: the optimal location for one distinct
/// object combination (an OVR poi list), the aggregate cost WGD there, and
/// the per-member criteria vector. `criteria[i]` is WD(location, group[i]);
/// since a group holds exactly one object per selected set in ascending set
/// order, entry i is the i-th selected set's criterion. The one answer
/// shape of every entry point: MolqResult::ranked and served answers too,
/// with `criteria` left empty where no criteria are computed.
struct SiteCandidate {
  Point location;
  double cost = 0.0;             ///< WGD at `location` (= sum of criteria)
  std::vector<double> criteria;  ///< per-member WD, in group order
  std::vector<PoiRef> group;     ///< sorted by (set, object)
};

/// Pareto dominance on criteria vectors: a dominates b when a_i <= b_i on
/// every criterion and a_i < b_i on at least one. Vectors of different
/// lengths (different layer selections) are incomparable.
bool Dominates(const std::vector<double>& a, const std::vector<double>& b);

/// Lexicographic order on object groups (PoiRef's (set, object) order).
/// The deterministic tie-breaker of every query-shape ranking: two
/// distinct candidates always have distinct groups, so any order ending in
/// GroupBefore is total.
bool GroupBefore(const std::vector<PoiRef>& a, const std::vector<PoiRef>& b);

/// The ranking order of cost-ranked results (diversified top-k, what-if
/// rankings): ascending cost, ties by GroupBefore. TopKFromMovd ranks by
/// the same rule, so k best under this order == top-k.
bool CandidateOrderBefore(const SiteCandidate& a, const SiteCandidate& b);

/// The skyline scan/output order: ascending left-to-right criteria sum,
/// then lexicographic criteria, then GroupBefore. Monotone with respect to
/// dominance even in floating point (rounded summation is monotone per
/// argument, and when sums tie a dominator's first differing criterion is
/// strictly smaller), so a dominator always precedes what it dominates —
/// the property the sort-filter skyline pass relies on.
bool SkylineOrderBefore(const SiteCandidate& a, const SiteCandidate& b);

/// Sorts `*candidates` by SkylineOrderBefore and removes every dominated
/// candidate in place — the sort-filter skyline pass of the skyline
/// evaluator (src/query/skyline.cc). Because dominance is transitive,
/// filtering a union of skylines yields exactly the skyline of the union
/// of their inputs. `dominance_tests` (optional) accumulates the pairwise
/// Dominates() evaluations performed.
void SkylineFilterInPlace(std::vector<SiteCandidate>* candidates,
                          uint64_t* dominance_tests);

/// The multi-criteria skyline of candidate sites: every candidate not
/// dominated on its criteria vector, in SkylineOrderBefore order.
/// Candidates with bitwise-equal criteria are mutually non-dominated and
/// all retained.
struct SkylineResult {
  StatusCode status = StatusCode::kOk;
  std::vector<SiteCandidate> skyline;
  size_t candidates = 0;         ///< distinct combinations examined
  uint64_t dominance_tests = 0;  ///< pairwise Dominates() evaluations
};

/// Diversified top-k: the k best candidates under CandidateOrderBefore
/// whose pairwise distance is >= the request's min_distance, chosen
/// greedily in ranking order (so `selected` is ascending by that order).
struct DiverseTopKResult {
  StatusCode status = StatusCode::kOk;
  std::vector<SiteCandidate> selected;
  size_t candidates = 0;  ///< distinct combinations examined
  size_t skipped = 0;     ///< candidates rejected by the distance test
};

/// Spatial constraint of a constrained MOLQ: the answer must lie inside
/// `boundary` (when non-empty; otherwise anywhere in the search space) and
/// must not lie strictly inside any exclusion ring. Rings are simple CCW
/// polygons; exclusion boundaries stay feasible (closed-set semantics), and
/// zero-area (collinear) exclusions have no interior, hence are no-ops.
struct QueryConstraint {
  Polygon boundary;
  std::vector<Polygon> exclusions;
};

/// Well-formedness of a constraint: finite coordinates, >= 3 vertices per
/// present ring, CCW orientation, positive boundary area. Zero-area
/// exclusions pass (documented no-ops). Evaluators MOVD_CHECK this; the
/// serving layer calls it first so a bad request is an error response, not
/// a crashed server.
Status ValidateConstraint(const QueryConstraint& constraint);

/// The constrained-MOLQ answer. `feasible` is false when no overlap region
/// intersects the feasible set (the constraint excludes every candidate
/// region), in which case `best` is empty.
struct ConstrainedMolqResult {
  StatusCode status = StatusCode::kOk;
  bool feasible = false;
  SiteCandidate best;
  size_t clipped_ovrs = 0;     ///< OVRs with feasible area after clipping
  size_t boundary_solves = 0;  ///< OVRs whose optimum moved to a clip edge
};

/// One what-if weight vector: a per-set adjustment applied to every type
/// weight of the corresponding set through the query's ς^t composition
/// (multiplied under a multiplicative type function, added under an
/// additive one). Both compositions preserve each set's internal distance
/// ranking, so one MOVD artifact answers the whole sweep.
struct WhatIfVector {
  std::vector<double> scale;  ///< one entry per query set, set order
};

/// Well-formedness of one sweep vector against its base query: exactly one
/// finite entry per set, and strictly positive entries under a
/// multiplicative type function (a non-positive factor would invert or
/// collapse the set's ranking, invalidating the shared artifact).
Status ValidateWhatIfVector(const MolqQuery& base, const WhatIfVector& v);

/// `base` with one what-if vector applied (see WhatIfVector).
MolqQuery ApplyWhatIfVector(const MolqQuery& base, const WhatIfVector& v);

/// Batched what-if sweep: `per_vector[i]` is the top-k ranking (ascending
/// CandidateOrderBefore) under the i-th weight vector.
struct WhatIfSweepResult {
  StatusCode status = StatusCode::kOk;
  std::vector<std::vector<SiteCandidate>> per_vector;
};

}  // namespace movd

#endif  // MOVD_MODEL_QUERY_MODEL_H_
