#include "bench_lib/diff.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <system_error>

#include "util/table.h"

namespace movd::bench {
namespace {

std::string CaseKey(const BenchCaseResult& c) {
  return c.bench.empty() ? c.name : c.bench + "/" + c.name;
}

double FindMetric(const std::vector<std::pair<std::string, double>>& metrics,
                  const std::string& key, bool* found) {
  for (const auto& [k, v] : metrics) {
    if (k == key) {
      *found = true;
      return v;
    }
  }
  *found = false;
  return 0.0;
}

/// Relative difference scaled by the larger magnitude; exact zero-vs-zero
/// compares equal.
double RelDiff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  if (scale == 0.0) return 0.0;
  return std::fabs(a - b) / scale;
}

CaseVerdict TimingVerdict(const BenchCaseResult& old_case,
                          const BenchCaseResult& new_case,
                          const DiffOptions& options, bool same_machine,
                          std::string* note) {
  const Summary& o = old_case.wall;
  const Summary& n = new_case.wall;
  if (o.count == 0 || n.count == 0) return CaseVerdict::kWithinNoise;

  // Noisy-machine gate: a run that cannot hold its own wall time steady
  // (high coefficient of variation) cannot support a timing verdict.
  const double old_cv = o.median > 0.0 ? o.stddev / o.median : 0.0;
  const double new_cv = n.median > 0.0 ? n.stddev / n.median : 0.0;
  if (old_cv > options.max_noise_cv || new_cv > options.max_noise_cv) {
    *note = "noisy (cv " + Table::Fmt(std::max(old_cv, new_cv), 2) + ")";
    return CaseVerdict::kWithinNoise;
  }

  const double delta = n.median - o.median;
  const double noise_floor =
      options.noise_multiplier * std::max(o.stddev, n.stddev);
  const bool beats_noise = std::fabs(delta) > noise_floor;

  if (delta > o.median * options.time_threshold && beats_noise) {
    if (!same_machine && !options.cross_machine_timing) {
      *note = "different machine; timing advisory only";
      return CaseVerdict::kTimingAdvisory;
    }
    return CaseVerdict::kRegression;
  }
  if (-delta > o.median * options.time_threshold && beats_noise) {
    return CaseVerdict::kImprovement;
  }
  return CaseVerdict::kWithinNoise;
}

}  // namespace

const char* CaseVerdictName(CaseVerdict verdict) {
  switch (verdict) {
    case CaseVerdict::kImprovement: return "IMPROVEMENT";
    case CaseVerdict::kWithinNoise: return "within-noise";
    case CaseVerdict::kRegression: return "REGRESSION";
    case CaseVerdict::kTimingAdvisory: return "advisory";
    case CaseVerdict::kMetricMismatch: return "METRIC-MISMATCH";
    case CaseVerdict::kMissingCase: return "MISSING";
    case CaseVerdict::kNewCase: return "new";
  }
  return "?";
}

DiffResult DiffReports(const BenchReport& old_report,
                       const BenchReport& new_report,
                       const DiffOptions& options) {
  DiffResult result;
  result.same_machine = old_report.machine.SameAs(new_report.machine);

  std::map<std::string, const BenchCaseResult*> new_by_key;
  for (const BenchCaseResult& c : new_report.cases) {
    new_by_key[CaseKey(c)] = &c;
  }

  for (const BenchCaseResult& old_case : old_report.cases) {
    CaseDiff d;
    d.key = CaseKey(old_case);
    d.old_median = old_case.wall.median;
    const auto it = new_by_key.find(d.key);
    if (it == new_by_key.end()) {
      d.verdict = CaseVerdict::kMissingCase;
      d.note = "case disappeared from the new run";
      ++result.regressions;
      result.cases.push_back(std::move(d));
      continue;
    }
    const BenchCaseResult& new_case = *it->second;
    new_by_key.erase(it);
    d.new_median = new_case.wall.median;
    if (d.old_median > 0.0) d.ratio = d.new_median / d.old_median;

    // Deterministic metrics gate first: an answer drift is a bug even
    // when the timing looks fine.
    for (const auto& [key, old_value] : old_case.metrics) {
      bool found = false;
      const double new_value = FindMetric(new_case.metrics, key, &found);
      if (!found) {
        d.verdict = CaseVerdict::kMetricMismatch;
        d.note = "metric '" + key + "' missing from the new run";
        break;
      }
      if (RelDiff(old_value, new_value) > options.metric_tolerance) {
        d.verdict = CaseVerdict::kMetricMismatch;
        d.note = "metric '" + key + "': " + Table::Fmt(old_value, 9) +
                 " -> " + Table::Fmt(new_value, 9);
        break;
      }
    }
    if (d.verdict == CaseVerdict::kMetricMismatch) {
      ++result.regressions;
      result.cases.push_back(std::move(d));
      continue;
    }

    if (!options.metrics_only) {
      d.verdict = TimingVerdict(old_case, new_case, options,
                                result.same_machine, &d.note);
    }
    if (d.verdict == CaseVerdict::kRegression) ++result.regressions;
    if (d.verdict == CaseVerdict::kImprovement) ++result.improvements;
    result.cases.push_back(std::move(d));
  }

  // Cases only present in the new run (new_by_key retains them). Map
  // order keeps the report deterministic.
  for (const auto& [key, new_case] : new_by_key) {
    CaseDiff d;
    d.key = key;
    d.new_median = new_case->wall.median;
    d.verdict = CaseVerdict::kNewCase;
    d.note = "no baseline";
    result.cases.push_back(std::move(d));
  }
  return result;
}

void PrintDiff(const DiffResult& result, std::FILE* out) {
  Table table({"case", "old median(s)", "new median(s)", "ratio",
               "verdict", "note"});
  for (const CaseDiff& d : result.cases) {
    table.AddRow({d.key, Table::Fmt(d.old_median, 4),
                  Table::Fmt(d.new_median, 4),
                  d.ratio > 0.0 ? Table::Fmt(d.ratio, 2) + "x" : "-",
                  CaseVerdictName(d.verdict), d.note});
  }
  table.Print(out);
  std::fprintf(out,
               "\n%zu case(s): %d failing, %d improvement(s)%s\n",
               result.cases.size(), result.regressions,
               result.improvements,
               result.same_machine
                   ? ""
                   : " (machines differ: timings advisory)");
}

StatusOr<std::vector<std::string>> VanishedSuites(
    const std::string& baseline_dir,
    const std::vector<std::string>& new_suites) {
  std::error_code error;
  std::filesystem::directory_iterator it(baseline_dir, error);
  if (error) {
    return Status::NotFound("cannot list '" + baseline_dir +
                            "': " + error.message());
  }
  std::vector<std::string> vanished;
  for (const std::filesystem::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("BENCH_") || !name.ends_with(".json")) continue;
    const StatusOr<BenchReport> baseline =
        BenchReport::Load(entry.path().string());
    if (!baseline.ok()) return baseline.status();
    const std::string& suite = baseline.value().suite;
    if (std::find(new_suites.begin(), new_suites.end(), suite) ==
        new_suites.end()) {
      vanished.push_back(suite);
    }
  }
  std::sort(vanished.begin(), vanished.end());
  return vanished;
}

}  // namespace movd::bench
