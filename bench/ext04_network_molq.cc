// Extension experiment 4: MOLQ on road networks — solver scaling with
// network size and the cost gap between the Euclidean optimum (snapped to
// the roads) and the true network optimum, as the network gets sparser.
//
// Harnessed (DESIGN.md §10): the measured body is the network solve alone;
// the Euclidean solve + snapping that produce the gap Metrics run once as
// unmeasured setup. Extra flags: --vertices=500,2000,8000.

#include "bench/bench_common.h"
#include "network/graph.h"
#include "network/network_molq.h"
#include "util/check.h"

namespace movd::bench {

BENCH(ext04_network_molq) {
  const auto sizes =
      ParseSizes(ctx.flags().GetString("vertices", "500,2000,8000"));
  for (const size_t n : sizes) {
    for (const double keep : {0.05, 0.5, 1.0}) {
      const RoadNetwork net = RandomRoadNetwork(n, kWorld, keep, ctx.seed());
      Rng rng(ctx.seed() + 7);
      MolqQuery query;
      std::vector<NetworkObjectSet> sets(3);
      for (size_t s = 0; s < 3; ++s) {
        ObjectSet planar;
        planar.name = std::string("t") += std::to_string(s);
        for (int i = 0; i < 8; ++i) {
          const auto v =
              static_cast<int32_t>(rng.NextBelow(net.num_vertices()));
          sets[s].vertices.push_back(v);
          SpatialObject obj;
          obj.location = net.vertices()[v];
          planar.objects.push_back(obj);
        }
        query.sets.push_back(std::move(planar));
      }

      BenchCase& c = ctx.Case("solve/v=" + std::to_string(n) +
                              "/keep=" + FmtG(keep))
                         .Param("vertices", n)
                         .Param("keep", keep);
      NetworkMolqResult network;
      ctx.Measure(c, [&] { network = SolveNetworkMolq(net, sets); });
      c.Metric("network_cost", network.cost);

      MolqOptions opts;
      opts.epsilon = 1e-6;
      opts.exec = ctx.MakeExec();
      const MolqResult euclid = SolveMolq(query, kWorld, opts);
      MOVD_CHECK_MSG(euclid.status == StatusCode::kOk,
                     "the Euclidean solve returned no answer");
      const int32_t snapped = net.NearestVertex(euclid.location);
      double snapped_cost = 0.0;
      for (const auto& set : sets) {
        const auto dist = NearestSourceDistances(net, set.vertices);
        snapped_cost += set.type_weight * dist[snapped];
      }
      c.Metric("snapped_euclidean_cost", snapped_cost);
      c.Derived("gap_pct", 100.0 * (snapped_cost / network.cost - 1.0));
    }
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("ext04_network_molq")
