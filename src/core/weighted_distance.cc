#include "core/weighted_distance.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace movd {

double WeightedDistance(const Point& q, const SpatialObject& p,
                        WeightFunctionKind type_fn,
                        WeightFunctionKind object_fn) {
  const double d = Distance(q, p.location);
  return ApplyWeight(type_fn, ApplyWeight(object_fn, d, p.object_weight),
                     p.type_weight);
}

double WeightedGroupDistance(const MolqQuery& query, const Point& q,
                             const std::vector<int32_t>& group) {
  MOVD_CHECK(group.size() == query.sets.size());
  double sum = 0.0;
  for (size_t i = 0; i < group.size(); ++i) {
    const SpatialObject& p = query.sets[i].objects.at(group[i]);
    sum += WeightedDistance(q, p, query.type_function,
                            query.ObjectFunction(i));
  }
  return sum;
}

double WeightedGroupDistance(const MolqQuery& query, const Point& q,
                             const std::vector<PoiRef>& group) {
  double sum = 0.0;
  for (const PoiRef& ref : group) {
    const SpatialObject& p = query.sets.at(ref.set).objects.at(ref.object);
    sum += WeightedDistance(q, p, query.type_function,
                            query.ObjectFunction(ref.set));
  }
  return sum;
}

double MinWeightedGroupDistance(const MolqQuery& query, const Point& q) {
  double sum = 0.0;
  for (size_t i = 0; i < query.sets.size(); ++i) {
    const ObjectSet& set = query.sets[i];
    MOVD_CHECK(!set.objects.empty());
    double best = std::numeric_limits<double>::infinity();
    for (const SpatialObject& p : set.objects) {
      best = std::min(best, WeightedDistance(q, p, query.type_function,
                                             query.ObjectFunction(i)));
    }
    sum += best;
  }
  return sum;
}

std::vector<int32_t> ArgMinGroup(const MolqQuery& query, const Point& q) {
  std::vector<int32_t> group;
  group.reserve(query.sets.size());
  for (size_t i = 0; i < query.sets.size(); ++i) {
    const ObjectSet& set = query.sets[i];
    MOVD_CHECK(!set.objects.empty());
    int32_t best = 0;
    double best_wd = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < set.objects.size(); ++j) {
      const double wd = WeightedDistance(q, set.objects[j],
                                         query.type_function,
                                         query.ObjectFunction(i));
      if (wd < best_wd) {
        best_wd = wd;
        best = static_cast<int32_t>(j);
      }
    }
    group.push_back(best);
  }
  return group;
}

FermatWeberTerm DecomposeWeightedDistance(const SpatialObject& p,
                                          WeightFunctionKind type_fn,
                                          WeightFunctionKind object_fn) {
  // Inner function: ς^o(d, w^o) = a*d + b.
  double a, b;
  if (object_fn == WeightFunctionKind::kMultiplicative) {
    a = p.object_weight;
    b = 0.0;
  } else {
    a = 1.0;
    b = p.object_weight;
  }
  // Outer function: ς^t(x, w^t).
  FermatWeberTerm term;
  if (type_fn == WeightFunctionKind::kMultiplicative) {
    term.fw_weight = a * p.type_weight;
    term.offset = b * p.type_weight;
  } else {
    term.fw_weight = a;
    term.offset = b + p.type_weight;
  }
  return term;
}

StatusCode CheckWeightTerms(const MolqQuery& query, size_t set,
                            std::optional<double> adjustment) {
  for (SpatialObject obj : query.sets.at(set).objects) {
    if (adjustment.has_value()) {
      obj.type_weight =
          ApplyWeight(query.type_function, obj.type_weight, *adjustment);
    }
    const FermatWeberTerm term = DecomposeWeightedDistance(
        obj, query.type_function, query.ObjectFunction(set));
    if (!(std::isfinite(term.fw_weight) && term.fw_weight >= 0.0 &&
          std::isfinite(term.offset) && term.offset >= 0.0)) {
      return StatusCode::kInvalidArgument;
    }
  }
  return StatusCode::kOk;
}

StatusCode CheckWeightTerms(const MolqQuery& query) {
  for (size_t i = 0; i < query.sets.size(); ++i) {
    const StatusCode code = CheckWeightTerms(query, i);
    if (code != StatusCode::kOk) return code;
  }
  return StatusCode::kOk;
}

double BuildFermatWeberProblem(const MolqQuery& query,
                               const std::vector<PoiRef>& group,
                               std::vector<WeightedPoint>* points) {
  points->clear();
  double offset = 0.0;
  for (const PoiRef& ref : group) {
    const SpatialObject& obj = query.sets.at(ref.set).objects.at(ref.object);
    const FermatWeberTerm term = DecomposeWeightedDistance(
        obj, query.type_function, query.ObjectFunction(ref.set));
    points->push_back({obj.location, term.fw_weight});
    offset += term.offset;
  }
  return offset;
}

}  // namespace movd
