// Reproduces Fig. 9: MOLQ with four object types (Ē = {STM, CH, SCH, PPL}),
// execution time of SSC vs RRB vs MBRB. The paper observes RRB winning at
// four types because MBRB's false-positive OVRs compound across overlaps
// and flood the Optimizer; error bound epsilon = 0.001 as in §6.1.
//
// Harnessed (DESIGN.md §10). Extra flags: --sizes=8,16,24,32 --epsilon=1e-3.

#include "bench/bench_common.h"
#include "util/check.h"

namespace movd::bench {

BENCH(fig09_four_types) {
  const auto sizes = ParseSizes(ctx.flags().GetString("sizes", "8,16,24,32"));
  const double epsilon = ctx.flags().GetDouble("epsilon", 1e-3);
  constexpr struct {
    MolqAlgorithm algo;
    const char* name;
  } kAlgos[] = {{MolqAlgorithm::kSsc, "ssc"},
                {MolqAlgorithm::kRrb, "rrb"},
                {MolqAlgorithm::kMbrb, "mbrb"}};
  for (const size_t n : sizes) {
    const MolqQuery query = MakeQuery({n, n, n, n}, ctx.seed());
    size_t rrb_ovrs = 0;
    for (const auto& [algo, name] : kAlgos) {
      BenchCase& c = ctx.Case(std::string(name) + "/n=" + std::to_string(n))
                         .Param("algo", name)
                         .Param("n", n)
                         .Param("epsilon", epsilon);
      MolqResult result;
      ctx.Measure(c, [&] {
        MolqOptions opts;
        opts.algorithm = algo;
        opts.epsilon = epsilon;
        opts.exec = ctx.MakeExec();
        result = SolveMolq(query, kWorld, opts);
      });
      MOVD_CHECK_MSG(result.status == StatusCode::kOk,
                     "the solve returned no answer");
      c.Metric("cost", result.cost);
      if (algo == MolqAlgorithm::kRrb) {
        rrb_ovrs = result.stats.final_ovrs;
        c.Metric("final_ovrs", static_cast<double>(rrb_ovrs));
      } else if (algo == MolqAlgorithm::kMbrb) {
        c.Metric("final_ovrs",
                 static_cast<double>(result.stats.final_ovrs));
        c.Derived("ovr_ratio_vs_rrb",
                  static_cast<double>(result.stats.final_ovrs) /
                      static_cast<double>(std::max<size_t>(1, rrb_ovrs)));
      }
    }
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("fig09_molq_four_types")
