// Reproduces Fig. 10: the cost-bound (CB) batch Fermat–Weber solver vs the
// basic (Original) approach, varying the number of problems and the error
// bound epsilon. Each problem has 5 points with coordinates and weights
// drawn from [0, 10), exactly the paper's setup (§6.2). The batch is
// SolveFermatWeberBatch, i.e. the best-k scan (fermat/batch.h) the
// Optimizer, top-k and SSC also run, with k = 1.
//
// Harnessed (DESIGN.md §10). Extra flags:
//   --problems=1000,5000,10000,50000  --epsilons=1e-2,1e-3,1e-4
//   --ablate (adds bound-only / prefilter-only cases)
// The original, cb and ablation cases run on one thread, so their gated
// iteration counts do not depend on how the shared bound races; with
// --threads=N > 1 the fig10_parallel bench adds CB serial-vs-parallel
// cases (shared atomic cost bound).

#include "bench/bench_common.h"
#include "fermat/batch.h"

namespace movd::bench {
namespace {

std::vector<std::vector<WeightedPoint>> MakeProblems(size_t count,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<WeightedPoint>> problems(count);
  for (auto& problem : problems) {
    problem.reserve(5);
    for (int i = 0; i < 5; ++i) {
      double w = rng.Uniform(0.0, 10.0);
      if (w == 0.0) w = 0.1;
      problem.push_back({{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)}, w});
    }
  }
  return problems;
}

BatchResult RunBatch(const BenchContext& ctx,
                     const std::vector<std::vector<WeightedPoint>>& problems,
                     double epsilon, bool cost_bound, bool prefilter,
                     int threads) {
  BatchOptions opts;
  opts.epsilon = epsilon;
  opts.use_cost_bound = cost_bound;
  opts.use_two_point_prefilter = prefilter;
  opts.exec = ctx.MakeExec();
  opts.exec.threads = threads;
  return SolveFermatWeberBatch(problems, opts);
}

}  // namespace

BENCH(fig10_cost_bound) {
  const auto counts =
      ParseSizes(ctx.flags().GetString("problems", "1000,5000,10000,50000"));
  const auto epsilons =
      ParseDoubles(ctx.flags().GetString("epsilons", "1e-2,1e-3,1e-4"));
  for (const size_t count : counts) {
    const auto problems = MakeProblems(count, ctx.seed());
    for (const double eps : epsilons) {
      const std::string suffix =
          "/p=" + std::to_string(count) + "/eps=" + FmtG(eps);
      BenchCase& orig = ctx.Case("original" + suffix)
                            .Param("variant", "original")
                            .Param("problems", count)
                            .Param("epsilon", eps);
      BatchResult r;
      const Summary& orig_wall = ctx.Measure(orig, [&] {
        r = RunBatch(ctx, problems, eps, /*cost_bound=*/false,
                     /*prefilter=*/false, /*threads=*/1);
      });
      orig.Metric("cost", r.best.front().cost);
      orig.Metric("iterations", static_cast<double>(r.stats.total_iterations));

      BenchCase& cb = ctx.Case("cb" + suffix)
                          .Param("variant", "cb")
                          .Param("problems", count)
                          .Param("epsilon", eps);
      const Summary& cb_wall = ctx.Measure(cb, [&] {
        r = RunBatch(ctx, problems, eps, /*cost_bound=*/true,
                     /*prefilter=*/true, /*threads=*/1);
      });
      cb.Metric("cost", r.best.front().cost);
      cb.Metric("iterations", static_cast<double>(r.stats.total_iterations));
      cb.Derived("speedup_vs_original", orig_wall.median / cb_wall.median);
    }
  }
}

// Contribution of the two CB ingredients at the tightest epsilon; gated on
// --ablate as before the harness migration.
BENCH(fig10_ablation) {
  if (!ctx.flags().GetBool("ablate", false)) return;
  const auto counts =
      ParseSizes(ctx.flags().GetString("problems", "1000,5000,10000,50000"));
  const auto epsilons =
      ParseDoubles(ctx.flags().GetString("epsilons", "1e-2,1e-3,1e-4"));
  const double eps = epsilons.back();
  constexpr struct {
    const char* name;
    bool bound;
    bool prefilter;
  } kVariants[] = {{"bound_only", true, false},
                   {"prefilter_only", false, true}};
  for (const size_t count : counts) {
    const auto problems = MakeProblems(count, ctx.seed());
    for (const auto& v : kVariants) {
      BenchCase& c = ctx.Case(std::string(v.name) + "/p=" +
                              std::to_string(count) + "/eps=" + FmtG(eps))
                         .Param("variant", v.name)
                         .Param("problems", count)
                         .Param("epsilon", eps);
      BatchResult r;
      ctx.Measure(c, [&] {
        r = RunBatch(ctx, problems, eps, v.bound, v.prefilter,
                     /*threads=*/1);
      });
      c.Metric("cost", r.best.front().cost);
      c.Metric("iterations", static_cast<double>(r.stats.total_iterations));
    }
  }
}

// CB serial vs --threads=N with the shared atomic cost bound; populated
// only when --threads > 1.
BENCH(fig10_parallel) {
  const int threads = ctx.threads();
  if (threads <= 1) return;
  const auto counts =
      ParseSizes(ctx.flags().GetString("problems", "1000,5000,10000,50000"));
  const auto epsilons =
      ParseDoubles(ctx.flags().GetString("epsilons", "1e-2,1e-3,1e-4"));
  const double eps = epsilons.back();
  for (const size_t count : counts) {
    const auto problems = MakeProblems(count, ctx.seed());
    BenchCase& serial = ctx.Case("cb/1thr/p=" + std::to_string(count))
                            .Param("problems", count)
                            .Param("threads", static_cast<int64_t>(1));
    BatchResult r;
    const Summary& w1 = ctx.Measure(serial, [&] {
      r = RunBatch(ctx, problems, eps, true, true, 1);
    });
    serial.Metric("cost", r.best.front().cost);

    BenchCase& par = ctx.Case("cb/" + std::to_string(threads) + "thr/p=" +
                              std::to_string(count))
                         .Param("problems", count)
                         .Param("threads", static_cast<int64_t>(threads));
    const Summary& wn = ctx.Measure(par, [&] {
      r = RunBatch(ctx, problems, eps, true, true, threads);
    });
    par.Metric("cost", r.best.front().cost);
    par.Derived("speedup_vs_serial", w1.median / wn.median);
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("fig10_cost_bound")
