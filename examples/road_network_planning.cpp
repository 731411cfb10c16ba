// Road-network facility placement: the Euclidean MOLQ answer vs the
// network-aware answer on the same city. Sparse road networks force
// detours, so the two can differ substantially — this example quantifies
// the gap and renders both onto the road map.
//
// Build & run:  ./examples/road_network_planning [output_dir]

#include <cstdio>
#include <string>

#include "core/molq.h"
#include "network/graph.h"
#include "network/network_molq.h"
#include "util/rng.h"
#include "util/status.h"
#include "viz/svg.h"

namespace {

using namespace movd;

constexpr Rect kCity(0, 0, 10000, 10000);

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // A sparse road network (5% of the Delaunay edges beyond a spanning
  // skeleton) and three object types placed at random road vertices.
  const RoadNetwork roads = RandomRoadNetwork(600, kCity, 0.05, 99);
  Rng rng(100);
  MolqQuery query;
  const char* names[] = {"school", "clinic", "market"};
  for (int s = 0; s < 3; ++s) {
    ObjectSet set;
    set.name = names[s];
    for (int i = 0; i < 6; ++i) {
      SpatialObject obj;
      obj.location =
          roads.vertices()[rng.NextBelow(roads.num_vertices())];
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }

  // Euclidean answer (the paper's setting).
  MolqOptions options;
  options.epsilon = 1e-6;
  const MolqResult euclidean = SolveMolq(query, kCity, options);
  if (euclidean.status != StatusCode::kOk) {
    std::fprintf(stderr, "solve: %s\n", StatusCodeName(euclidean.status));
    return 1;
  }

  // Network answer (shortest-path distances, exact vertex optimum).
  const auto sets = SnapQueryToNetwork(roads, query);
  const NetworkMolqResult network = SolveNetworkMolq(roads, sets);
  const Point network_at = roads.vertices()[network.vertex];

  // Evaluate the Euclidean answer's quality *on the network*: snap it to
  // its nearest road vertex and compare network costs.
  const int32_t snapped = roads.NearestVertex(euclidean.location);
  double snapped_cost = 0.0;
  for (const auto& set : sets) {
    const auto dist = NearestSourceDistances(roads, set.vertices);
    snapped_cost += set.type_weight * dist[snapped];
  }

  std::printf("Euclidean optimum: (%.0f, %.0f), straight-line cost %.0f\n",
              euclidean.location.x, euclidean.location.y, euclidean.cost);
  std::printf("Network optimum:   vertex %d at (%.0f, %.0f), road cost "
              "%.0f\n", network.vertex, network_at.x, network_at.y,
              network.cost);
  std::printf("Euclidean answer snapped onto the roads costs %.0f "
              "(%.1f%% worse than the network optimum)\n", snapped_cost,
              100.0 * (snapped_cost / network.cost - 1.0));

  SvgWriter svg(kCity, 900);
  for (size_t v = 0; v < roads.num_vertices(); ++v) {
    for (const RoadNetwork::Arc& arc : roads.Neighbors(static_cast<int32_t>(v))) {
      if (arc.to > static_cast<int32_t>(v)) {
        svg.AddLine(roads.vertices()[v], roads.vertices()[arc.to],
                    "#bbbbbb", 0.8);
      }
    }
  }
  const char* colors[] = {"#1f77b4", "#2ca02c", "#d62728"};
  for (size_t s = 0; s < query.sets.size(); ++s) {
    for (const SpatialObject& obj : query.sets[s].objects) {
      svg.AddCircle(obj.location, 5.0, colors[s]);
    }
  }
  svg.AddCircle(euclidean.location, 9.0, "#ff7f0e");
  svg.AddText(euclidean.location + Point{120, 120}, "euclidean", 14);
  svg.AddCircle(network_at, 9.0, "#9467bd");
  svg.AddText(network_at + Point{120, -120}, "network", 14);
  const std::string path = out_dir + "/road_network_planning.svg";
  if (const Status s = svg.Save(path); s.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
