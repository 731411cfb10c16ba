#ifndef MOVD_CORE_WEIGHTED_DISTANCE_H_
#define MOVD_CORE_WEIGHTED_DISTANCE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "fermat/fermat_weber.h"
#include "model/object.h"
#include "geom/point.h"
#include "util/status.h"

namespace movd {

/// WD(q, p, ς^t, ς^o) = ς^t(ς^o(d(q, p.l), p.w^o), p.w^t)   (paper Eq. 1).
double WeightedDistance(const Point& q, const SpatialObject& p,
                        WeightFunctionKind type_fn,
                        WeightFunctionKind object_fn);

/// WGD(q, G, ς^t, σ): sum of WD over an object group, one object per set
/// (paper Eq. 2). `group[i]` indexes into `query.sets[i].objects`.
double WeightedGroupDistance(const MolqQuery& query, const Point& q,
                             const std::vector<int32_t>& group);

/// WGD over an explicit list of object references (used on OVR poi lists).
double WeightedGroupDistance(const MolqQuery& query, const Point& q,
                             const std::vector<PoiRef>& group);

/// MWGD(q, Ē, ς^t, σ) (paper Eq. 3). Because the group sum decomposes per
/// type, the minimum over the cartesian product equals the sum of per-set
/// minima; this evaluates in O(sum |P_i|) rather than O(prod |P_i|).
double MinWeightedGroupDistance(const MolqQuery& query, const Point& q);

/// The group realising MinWeightedGroupDistance: per set, the object with
/// the smallest WD (ties to the lowest index).
std::vector<int32_t> ArgMinGroup(const MolqQuery& query, const Point& q);

/// The decomposition of one object's WD into Fermat–Weber form:
/// WD(q, p) = fw_weight * d(q, p.l) + offset. Exact for every combination
/// of multiplicative/additive ς^t and ς^o (see DESIGN.md §4); this is how
/// the Optimizer turns an OVR into a weighted Fermat–Weber problem plus a
/// constant.
struct FermatWeberTerm {
  double fw_weight = 1.0;
  double offset = 0.0;
};
FermatWeberTerm DecomposeWeightedDistance(const SpatialObject& p,
                                          WeightFunctionKind type_fn,
                                          WeightFunctionKind object_fn);

/// The weight check of the query entry points (SolveMolq, SolveMolqTopK):
/// kInvalidArgument when any object's DecomposeWeightedDistance term has a
/// negative or non-finite fw_weight or offset, else kOk. Such a term makes
/// WD negative or undefined, so no answer over it means anything. Zero
/// weights are legal.
StatusCode CheckWeightTerms(const MolqQuery& query);

/// The same check over set `set` of `query` alone, each type weight first
/// composed with `adjustment` through the query's type function when one
/// is given (ApplyWhatIfVector's composition of one what-if entry), so a
/// what-if vector is checked without copying the query.
StatusCode CheckWeightTerms(const MolqQuery& query, size_t set,
                            std::optional<double> adjustment = std::nullopt);

/// The Fermat–Weber problem of one object group, the one place a group
/// becomes demand points (optimizer, top-k, SSC, the query shapes and the
/// combination bounds all call it): replaces `*points` with one demand
/// point per member, in group order, each weighted by its
/// DecomposeWeightedDistance fw_weight, and returns the sum of the
/// members' offsets in group order. WGD(q, group) = FermatWeberCost(
/// *points, q) + the returned offset. Refs must index into `query`.
double BuildFermatWeberProblem(const MolqQuery& query,
                               const std::vector<PoiRef>& group,
                               std::vector<WeightedPoint>* points);

}  // namespace movd

#endif  // MOVD_CORE_WEIGHTED_DISTANCE_H_
