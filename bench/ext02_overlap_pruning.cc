// Extension experiment 2 (paper §8 future work: filtering impossible POI
// combinations during MOVD overlapping): SolveMolq, which clips no cell of
// an object the bound rules out and whose overlap skips the candidate
// pairs that cannot hold the optimum, vs the unpruned
// pipeline run through its public stages (BuildMolqOverlay without the
// bound -> OptimizeMovd), for RRB and MBRB at 3 and 4 object types. Both
// arms must return the same answer bit for bit (checked on every run).
//
// Harnessed (DESIGN.md §10). Extra flags: --sizes=16,32,64 --epsilon=1e-3.

#include <bit>

#include "bench/bench_common.h"
#include "core/optimizer.h"
#include "util/check.h"

namespace movd::bench {
namespace {

// The unpruned pipeline stage by stage: SolveMolq's front half without
// the combination bound, then the optimizer with SolveMolq's options.
MolqResult SolveUnpruned(const MolqQuery& query, const MolqOptions& options) {
  MolqResult result;
  const Movd movd =
      BuildMolqOverlay(query, kWorld, options, /*prune=*/false, &result);
  MOVD_CHECK_MSG(result.status == StatusCode::kOk,
                 "the unpruned overlay did not build");
  const OptimizerResult best = OptimizeMovd(query, movd, options);
  result.location = best.location;
  result.cost = best.cost;
  result.group = best.group;
  return result;
}

bool SameAnswer(const MolqResult& a, const MolqResult& b) {
  return std::bit_cast<uint64_t>(a.cost) == std::bit_cast<uint64_t>(b.cost) &&
         std::bit_cast<uint64_t>(a.location.x) ==
             std::bit_cast<uint64_t>(b.location.x) &&
         std::bit_cast<uint64_t>(a.location.y) ==
             std::bit_cast<uint64_t>(b.location.y) &&
         a.group == b.group;
}

void OverlapMetrics(const MolqResult& r, BenchCase* c) {
  c->Metric("cost", r.cost);
  c->Metric("final_ovrs", static_cast<double>(r.stats.final_ovrs));
  c->Metric("pruned_pairs", static_cast<double>(r.stats.overlap.pruned_pairs));
  c->Metric("region_intersections",
            static_cast<double>(r.stats.overlap.region_intersections));
}

}  // namespace

BENCH(ext02_overlap_pruning) {
  const auto sizes = ParseSizes(ctx.flags().GetString("sizes", "16,32,64"));
  const double epsilon = ctx.flags().GetDouble("epsilon", 1e-3);
  for (const size_t types : {3u, 4u}) {
    for (const size_t n : sizes) {
      const MolqQuery query =
          MakeQuery(std::vector<size_t>(types, n), ctx.seed());
      for (const auto& [algo, name] :
           {std::pair{MolqAlgorithm::kRrb, "rrb"},
            std::pair{MolqAlgorithm::kMbrb, "mbrb"}}) {
        const std::string suffix = std::string("/") + name + "/types=" +
                                   std::to_string(types) + "/n=" +
                                   std::to_string(n);
        MolqOptions opts;
        opts.algorithm = algo;
        opts.epsilon = epsilon;
        opts.exec = ctx.MakeExec();

        BenchCase& plain = ctx.Case("plain" + suffix)
                               .Param("algo", name)
                               .Param("types", types)
                               .Param("n", n);
        MolqResult plain_r;
        const Summary& plain_wall = ctx.Measure(
            plain, [&] { plain_r = SolveUnpruned(query, opts); });
        OverlapMetrics(plain_r, &plain);

        BenchCase& pruned = ctx.Case("pruned" + suffix)
                                .Param("algo", name)
                                .Param("types", types)
                                .Param("n", n);
        MolqResult pruned_r;
        const Summary& pruned_wall = ctx.Measure(
            pruned, [&] { pruned_r = SolveMolq(query, kWorld, opts); });
        OverlapMetrics(pruned_r, &pruned);
        pruned.Metric("pruned_objects",
                      static_cast<double>(pruned_r.stats.pruned_objects));
        MOVD_CHECK_MSG(pruned_r.status == StatusCode::kOk &&
                           SameAnswer(plain_r, pruned_r),
                       "pruned answer differs from the unpruned pipeline");
        pruned.Derived("speedup_vs_plain",
                       plain_wall.median / pruned_wall.median);
      }
    }
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("ext02_overlap_pruning")
