// Quickstart: the smallest useful MOLQ program.
//
// Three object types (schools, bus stops, supermarkets), a handful of
// objects each, multiplicative weights. Finds the location minimising the
// total weighted distance to the nearest object of each type, using the
// RRB pipeline, and cross-checks against the SSC baseline.
//
// Build & run:  ./examples/quickstart

#include <cstdio>

#include "core/molq.h"

using movd::MolqAlgorithm;
using movd::MolqOptions;
using movd::MolqQuery;
using movd::ObjectSet;
using movd::Point;
using movd::Rect;
using movd::SpatialObject;
using movd::StatusCode;
using movd::StatusCodeName;

namespace {

ObjectSet MakeSet(const char* name,
                  std::initializer_list<std::pair<Point, double>> objects) {
  ObjectSet set;
  set.name = name;
  for (const auto& [location, type_weight] : objects) {
    SpatialObject obj;
    obj.location = location;
    obj.type_weight = type_weight;  // smaller = more important
    set.objects.push_back(obj);
  }
  return set;
}

}  // namespace

int main() {
  // A 10km x 10km city, coordinates in meters.
  const Rect city(0, 0, 10000, 10000);

  MolqQuery query;
  query.sets.push_back(MakeSet("school", {{{2000, 7000}, 1.0},
                                          {{5500, 6500}, 1.0},
                                          {{8000, 2000}, 1.0}}));
  query.sets.push_back(MakeSet("bus_stop", {{{1500, 6000}, 0.5},
                                            {{5000, 5000}, 0.5},
                                            {{6000, 8500}, 0.5},
                                            {{8500, 3000}, 0.5}}));
  query.sets.push_back(MakeSet("supermarket", {{{3000, 3000}, 2.0},
                                               {{7000, 7000}, 2.0}}));

  MolqOptions options;
  options.algorithm = MolqAlgorithm::kRrb;
  options.epsilon = 1e-6;
  const auto rrb = SolveMolq(query, city, options);
  if (rrb.status != StatusCode::kOk) {
    std::fprintf(stderr, "RRB: %s\n", StatusCodeName(rrb.status));
    return 1;
  }

  std::printf("Optimal location: (%.1f, %.1f)\n", rrb.location.x,
              rrb.location.y);
  std::printf("Total weighted distance: %.1f\n", rrb.cost);
  std::printf("OVRs examined: %zu (of %zu basic combinations)\n",
              rrb.stats.final_ovrs,
              query.sets[0].objects.size() * query.sets[1].objects.size() *
                  query.sets[2].objects.size());

  // Cross-check with the brute-force SSC baseline.
  options.algorithm = MolqAlgorithm::kSsc;
  const auto ssc = SolveMolq(query, city, options);
  if (ssc.status != StatusCode::kOk) {
    std::fprintf(stderr, "SSC: %s\n", StatusCodeName(ssc.status));
    return 1;
  }
  std::printf("SSC agrees: cost %.1f (deviation %.2e)\n", ssc.cost,
              std::abs(ssc.cost - rrb.cost) / ssc.cost);
  return 0;
}
