#ifndef MOVD_BENCH_LIB_DIFF_H_
#define MOVD_BENCH_LIB_DIFF_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib/report.h"

namespace movd::bench {

/// Regression-gating comparison of two BenchReports (tools/bench_diff).
///
/// Timing policy — a case's wall median counts as a REGRESSION only when
/// all three hold:
///   1. new.median > old.median * (1 + time_threshold);
///   2. the absolute delta exceeds noise_multiplier x the larger of the
///      two runs' stddevs (a slow-but-noisy case is kWithinNoise, the
///      "noisy-machine" gate keyed on stddev);
///   3. the two reports carry the same machine fingerprint, or
///      cross_machine_timing is true. Wall clocks of different hosts are
///      not comparable, so cross-machine timing deltas are advisory by
///      default (reported, never failing) while metric gating still
///      applies — that is what lets CI diff against checked-in baselines.
///
/// Metric policy — `metrics` entries are deterministic outputs; any
/// relative difference beyond metric_tolerance is kMetricMismatch and
/// fails regardless of machine. `derived` entries are never compared.
struct DiffOptions {
  double time_threshold = 0.20;    ///< relative median growth that fails
  double noise_multiplier = 3.0;   ///< stddev multiple the delta must beat
  double metric_tolerance = 1e-6;  ///< relative tolerance for metrics
  bool cross_machine_timing = false;  ///< gate timings across machines too
  bool metrics_only = false;          ///< skip timing verdicts entirely
  /// Cases whose relative stddev (stddev/median) exceeds this in either
  /// run are too noisy for a timing verdict and report kWithinNoise.
  double max_noise_cv = 0.30;
};

enum class CaseVerdict {
  kImprovement,     ///< median shrank beyond threshold + noise gate
  kWithinNoise,     ///< no actionable timing change
  kRegression,      ///< timing gate failed (fails the diff)
  kTimingAdvisory,  ///< would regress, but machines differ — not gated
  kMetricMismatch,  ///< deterministic metric drifted (fails the diff)
  kMissingCase,     ///< case in old but not new (fails the diff)
  kNewCase,         ///< case in new but not old (reported, not failing)
};

const char* CaseVerdictName(CaseVerdict verdict);

struct CaseDiff {
  std::string key;  ///< "bench/name"
  CaseVerdict verdict = CaseVerdict::kWithinNoise;
  double old_median = 0.0;
  double new_median = 0.0;
  double ratio = 0.0;  ///< new/old median (0 when either side missing)
  std::string note;    ///< human-readable detail (mismatched metric, ...)
};

struct DiffResult {
  std::vector<CaseDiff> cases;
  int regressions = 0;   ///< kRegression + kMetricMismatch + kMissingCase
  int improvements = 0;
  bool same_machine = false;

  bool failed() const { return regressions > 0; }
};

/// Compares `new_report` against `old_report` (the baseline).
DiffResult DiffReports(const BenchReport& old_report,
                       const BenchReport& new_report,
                       const DiffOptions& options);

/// Renders the diff as a fixed-width table.
void PrintDiff(const DiffResult& result, std::FILE* out);

/// The suites of the BENCH_*.json baselines in `baseline_dir` that none of
/// `new_suites` names, sorted: cases no run compares against, which a
/// per-report diff never sees. Matches on each baseline's `suite` field,
/// not its file name. An unreadable baseline or directory is an error.
StatusOr<std::vector<std::string>> VanishedSuites(
    const std::string& baseline_dir,
    const std::vector<std::string>& new_suites);

}  // namespace movd::bench

#endif  // MOVD_BENCH_LIB_DIFF_H_
