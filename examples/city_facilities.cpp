// Facility-scale comparison: runs the three MOLQ solvers on a larger
// synthetic city built from the GeoNames-like catalog (streams, churches,
// schools) and reports per-stage timings — a miniature of the paper's
// Fig. 8 experiment with visible pipeline internals.
//
// Build & run:  ./examples/city_facilities [--objects=64] [--epsilon=1e-3]

#include <cstdio>

#include "bench/bench_common.h"
#include "core/molq.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using namespace movd;
using movd::bench::kWorld;
using movd::bench::MakeQuery;

void Report(const char* name, const MolqResult& r, double total_seconds) {
  std::printf("%-5s cost=%-12.1f at (%7.1f, %7.1f)  total=%6.3fs", name,
              r.cost, r.location.x, r.location.y, total_seconds);
  if (r.stats.final_ovrs > 0) {
    std::printf("  [vd=%.3fs overlap=%.3fs optimize=%.3fs, %zu OVRs, "
                "%zu FW problems, %llu iterations]",
                r.stats.vd_seconds, r.stats.overlap_seconds,
                r.stats.optimize_seconds, r.stats.final_ovrs,
                static_cast<size_t>(r.stats.optimizer.problems),
                static_cast<unsigned long long>(
                    r.stats.optimizer.total_iterations));
  } else {
    std::printf("  [%llu combinations, %llu filtered]",
                static_cast<unsigned long long>(r.stats.optimizer.problems),
                static_cast<unsigned long long>(
                    r.stats.optimizer.skipped_prefilter));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("objects", 64));
  const double epsilon = flags.GetDouble("epsilon", 1e-3);
  flags.WarnUnused(stderr);

  std::printf("City with %zu streams, %zu churches, %zu schools "
              "(type weights U[0,10))\n\n", n, n, n);
  const MolqQuery query = MakeQuery({n, n, n}, /*seed=*/7);

  MolqOptions options;
  options.epsilon = epsilon;
  for (const auto& [algo, name] :
       {std::pair{MolqAlgorithm::kSsc, "SSC"},
        std::pair{MolqAlgorithm::kRrb, "RRB"},
        std::pair{MolqAlgorithm::kMbrb, "MBRB"}}) {
    options.algorithm = algo;
    Stopwatch sw;
    const MolqResult r = SolveMolq(query, kWorld, options);
    if (r.status != StatusCode::kOk) {
      std::fprintf(stderr, "%s: %s\n", name, StatusCodeName(r.status));
      return 1;
    }
    Report(name, r, sw.ElapsedSeconds());
  }
  return 0;
}
