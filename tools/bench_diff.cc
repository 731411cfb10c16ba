// bench_diff — regression gate over the harness's BENCH_*.json reports
// (DESIGN.md §10).
//
// Modes:
//   bench_diff OLD.json NEW.json
//       Compare a new run against a baseline report. Exits 1 when any
//       gated comparison fails (timing regression on the same machine,
//       deterministic-metric drift, or a case that disappeared).
//   bench_diff --baseline_dir=bench/baselines NEW.json...
//       Compare each new report against <baseline_dir>/BENCH_<suite>.json,
//       the run-vs-baseline form the CI perf job uses. Also exits 1 when
//       a baseline's suite has no new report (a vanished suite).
//   bench_diff --check FILE...
//       Schema-validate reports without comparing (exit 1 on any invalid
//       or unparseable file).
//
// Gating knobs (see bench_lib/diff.h for exact semantics):
//   --time_threshold=0.20     relative median growth that counts as a
//                             regression
//   --noise_multiplier=3.0    the delta must also exceed this multiple of
//                             the larger run's stddev
//   --max_noise_cv=0.30       noisy-machine gate: cases whose stddev/median
//                             exceeds this in either run are within-noise
//   --metric_tolerance=1e-6   relative tolerance for deterministic metrics
//   --cross_machine_timing    gate timings even when the machine
//                             fingerprints differ (default: advisory only)
//   --metrics_only            skip timing verdicts entirely

#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib/diff.h"
#include "bench_lib/report.h"
#include "util/flags.h"

namespace movd::bench {
namespace {

int CheckFiles(const std::vector<std::string>& paths) {
  int invalid = 0;
  for (const std::string& path : paths) {
    const StatusOr<BenchReport> report = BenchReport::Load(path);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                   report.status().ToString().c_str());
      ++invalid;
      continue;
    }
    std::fprintf(stderr, "%s: ok (%s, %zu cases)\n", path.c_str(),
                 report.value().suite.c_str(), report.value().cases.size());
  }
  return invalid == 0 ? 0 : 1;
}

int DiffPair(const std::string& old_path, const std::string& new_path,
             const DiffOptions& options) {
  const StatusOr<BenchReport> old_report = BenchReport::Load(old_path);
  if (!old_report.ok()) {
    std::fprintf(stderr, "%s: %s\n", old_path.c_str(),
                 old_report.status().ToString().c_str());
    return 2;
  }
  const StatusOr<BenchReport> new_report = BenchReport::Load(new_path);
  if (!new_report.ok()) {
    std::fprintf(stderr, "%s: %s\n", new_path.c_str(),
                 new_report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s: %s (baseline) vs %s\n",
              new_report.value().suite.c_str(), old_path.c_str(),
              new_path.c_str());
  const DiffResult result =
      DiffReports(old_report.value(), new_report.value(), options);
  PrintDiff(result, stdout);
  return result.failed() ? 1 : 0;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  DiffOptions options;
  options.time_threshold =
      flags.GetDouble("time_threshold", options.time_threshold);
  options.noise_multiplier =
      flags.GetDouble("noise_multiplier", options.noise_multiplier);
  options.metric_tolerance =
      flags.GetDouble("metric_tolerance", options.metric_tolerance);
  options.max_noise_cv = flags.GetDouble("max_noise_cv", options.max_noise_cv);
  options.cross_machine_timing =
      flags.GetBool("cross_machine_timing", options.cross_machine_timing);
  options.metrics_only = flags.GetBool("metrics_only", options.metrics_only);
  const bool check_only = flags.GetBool("check", false);
  const std::string baseline_dir = flags.GetString("baseline_dir", "");
  const std::vector<std::string>& paths = flags.positional();
  flags.WarnUnused(stderr);

  if (check_only) {
    if (paths.empty()) {
      std::fprintf(stderr, "bench_diff --check needs at least one file\n");
      return 2;
    }
    return CheckFiles(paths);
  }

  if (!baseline_dir.empty()) {
    if (paths.empty()) {
      std::fprintf(stderr,
                   "bench_diff --baseline_dir=DIR needs report files\n");
      return 2;
    }
    int exit_code = 0;
    std::vector<std::string> new_suites;
    for (const std::string& new_path : paths) {
      const StatusOr<BenchReport> peek = BenchReport::Load(new_path);
      if (!peek.ok()) {
        std::fprintf(stderr, "%s: %s\n", new_path.c_str(),
                     peek.status().ToString().c_str());
        exit_code = std::max(exit_code, 2);
        continue;
      }
      new_suites.push_back(peek.value().suite);
      const std::string old_path =
          baseline_dir + "/BENCH_" + peek.value().suite + ".json";
      exit_code = std::max(exit_code, DiffPair(old_path, new_path, options));
      std::printf("\n");
    }
    const StatusOr<std::vector<std::string>> vanished =
        VanishedSuites(baseline_dir, new_suites);
    if (!vanished.ok()) {
      std::fprintf(stderr, "%s\n", vanished.status().ToString().c_str());
      return std::max(exit_code, 2);
    }
    for (const std::string& suite : vanished.value()) {
      std::printf("%s: VANISHED: baseline in %s, but no report names it\n",
                  suite.c_str(), baseline_dir.c_str());
      exit_code = std::max(exit_code, 1);
    }
    return exit_code;
  }

  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff [gating flags] OLD.json NEW.json\n"
                 "       bench_diff --baseline_dir=DIR NEW.json...\n"
                 "       bench_diff --check FILE...\n");
    return 2;
  }
  return DiffPair(paths[0], paths[1], options);
}

}  // namespace
}  // namespace movd::bench

int main(int argc, char** argv) { return movd::bench::Main(argc, argv); }
