// Residential location selection — the paper's motivating example (Fig. 1).
//
// A city has schools, bus stops and supermarkets. A family weighs the
// importance of each amenity type (type weights) and their preference for
// individual amenities (object weights, e.g. school quality). The query
// returns the residence location minimising the total weighted distance to
// the closest amenity of each type.
//
// The example runs the query twice — once with uniform weights, once with
// personalised ones — and renders both answers into SVG maps.
//
// Build & run:  ./examples/residential_planning [output_dir]

#include <cstdio>
#include <string>

#include "core/molq.h"
#include "core/weighted_distance.h"
#include "data/generate.h"
#include "util/rng.h"
#include "util/status.h"
#include "viz/svg.h"

namespace {

using namespace movd;

constexpr Rect kCity(0, 0, 10000, 10000);

MolqQuery MakeCity(uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  const struct {
    const char* name;
    size_t count;
    double type_weight;
  } specs[] = {
      {"school", 12, 1.0},
      {"bus_stop", 25, 0.6},
      {"supermarket", 8, 1.5},
  };
  for (const auto& spec : specs) {
    ObjectSet set;
    set.name = spec.name;
    GeneratorConfig config;
    config.distribution = Distribution::kGaussianClusters;
    config.count = spec.count;
    config.bounds = kCity;
    config.clusters = 5;
    config.spread_fraction = 0.08;
    config.seed = seed ^ spec.count;
    for (const Point& p : GeneratePoints(config)) {
      SpatialObject obj;
      obj.location = p;
      obj.type_weight = spec.type_weight;
      obj.object_weight = 1.0;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

void Render(const MolqQuery& query, const MolqResult& result,
            const std::string& path) {
  SvgWriter svg(kCity, 800);
  const char* colors[] = {"#1f77b4", "#2ca02c", "#d62728"};
  // Voronoi cells of the first type for context.
  const Movd basic = BuildBasicMovd(query, 0, kCity, 128);
  for (const Ovr& ovr : basic.ovrs) {
    for (const ConvexPolygon& piece : ovr.region.pieces()) {
      svg.AddPolygon(piece, "none", "#cccccc", 0.5);
    }
  }
  for (size_t s = 0; s < query.sets.size(); ++s) {
    for (const SpatialObject& obj : query.sets[s].objects) {
      svg.AddCircle(obj.location, 4.0, colors[s % 3]);
    }
  }
  // The winning group and the answer.
  const auto group = ArgMinGroup(query, result.location);
  for (size_t s = 0; s < group.size(); ++s) {
    svg.AddLine(result.location, query.sets[s].objects[group[s]].location,
                "#555555", 1.5);
  }
  svg.AddCircle(result.location, 8.0, "#ff7f0e");
  svg.AddText(result.location + Point{150, 150}, "optimal residence", 16);
  if (const Status s = svg.Save(path); s.ok()) {
    std::printf("  wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  MolqQuery query = MakeCity(2026);

  MolqOptions options;
  options.algorithm = MolqAlgorithm::kRrb;
  options.epsilon = 1e-6;

  std::printf("Uniform preferences:\n");
  const MolqResult uniform = SolveMolq(query, kCity, options);
  if (uniform.status != StatusCode::kOk) {
    std::fprintf(stderr, "solve: %s\n", StatusCodeName(uniform.status));
    return 1;
  }
  std::printf("  residence at (%.0f, %.0f), weighted distance %.0f\n",
              uniform.location.x, uniform.location.y, uniform.cost);
  Render(query, uniform, out_dir + "/residential_uniform.svg");

  // Personalised: schools matter twice as much, and the family dislikes
  // the specific supermarket serving the uniform answer. The dislike is an
  // *additive* object weight — a fixed 2.5 km inconvenience no matter how
  // close one lives — which demonstrates mixing weight functions per type
  // (multiplicative for schools/bus stops, additive for supermarkets).
  std::printf("Personalised preferences (schools 2x important; the "
              "supermarket nearest the first answer is disliked):\n");
  for (SpatialObject& obj : query.sets[0].objects) obj.type_weight *= 0.5;
  const auto disliked = ArgMinGroup(query, uniform.location);
  query.object_functions = {WeightFunctionKind::kMultiplicative,
                            WeightFunctionKind::kMultiplicative,
                            WeightFunctionKind::kAdditive};
  for (SpatialObject& obj : query.sets[2].objects) obj.object_weight = 0.0;
  query.sets[2].objects[disliked[2]].object_weight = 2500.0;
  const MolqResult personalised = SolveMolq(query, kCity, options);
  if (personalised.status != StatusCode::kOk) {
    std::fprintf(stderr, "solve: %s\n", StatusCodeName(personalised.status));
    return 1;
  }
  std::printf("  residence at (%.0f, %.0f), weighted distance %.0f\n",
              personalised.location.x, personalised.location.y,
              personalised.cost);
  Render(query, personalised, out_dir + "/residential_personalised.svg");

  const double moved = Distance(uniform.location, personalised.location);
  std::printf("Preferences moved the answer %.0f meters.\n", moved);
  return 0;
}
