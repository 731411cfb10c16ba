// Tests for the benchmark harness subsystem (src/bench_lib, DESIGN.md §10):
// the JSON document model, BENCH_*.json emit/parse roundtrip, bench_diff
// verdict semantics (injected regression, same-machine rerun, metric
// drift), and an in-process harness smoke run via RunBenchesForTest.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_lib/bench.h"
#include "bench_lib/diff.h"
#include "bench_lib/json.h"
#include "bench_lib/report.h"
#include "gtest/gtest.h"

namespace movd::bench {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, ParseScalars) {
  EXPECT_EQ(JsonValue::Parse("null").value().kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(JsonValue::Parse("true").value().AsBool());
  EXPECT_FALSE(JsonValue::Parse("false").value().AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-12.5e2").value().AsNumber(), -1250.0);
  EXPECT_EQ(JsonValue::Parse("\"a\\nb\"").value().AsString(), "a\nb");
}

TEST(JsonTest, ParseNested) {
  const auto doc =
      JsonValue::Parse("{\"a\": [1, 2, {\"b\": \"c\"}], \"d\": {}}");
  ASSERT_TRUE(doc.ok());
  const JsonValue* a = doc.value().Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].AsNumber(), 1.0);
  EXPECT_EQ(a->items()[2].StringOr("b", ""), "c");
}

TEST(JsonTest, ParseErrorsCarryOffsets) {
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2").ok());
  EXPECT_FALSE(JsonValue::Parse("12 garbage").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

TEST(JsonTest, WriteParseRoundtrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::Str("x"));
  obj.Set("value", JsonValue::Number(0.001234567891234));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Number(1));
  arr.Append(JsonValue::Bool(true));
  arr.Append(JsonValue());
  obj.Set("list", std::move(arr));

  for (const int indent : {-1, 2}) {
    const auto parsed = JsonValue::Parse(obj.Write(indent));
    ASSERT_TRUE(parsed.ok());
    EXPECT_DOUBLE_EQ(parsed.value().NumberOr("value", 0.0),
                     0.001234567891234);
    EXPECT_EQ(parsed.value().Find("list")->items().size(), 3u);
  }
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("z", JsonValue::Number(1));
  obj.Set("a", JsonValue::Number(2));
  const std::string text = obj.Write();
  EXPECT_LT(text.find("\"z\""), text.find("\"a\""));
}

// -------------------------------------------------------------- report --

BenchReport MakeReport(double median, double stddev, double cost) {
  BenchReport report;
  report.suite = "unit";
  report.machine = BenchReport::ThisMachine();
  BenchCaseResult c;
  c.bench = "b";
  c.name = "case/n=1";
  c.params = {{"n", "1"}};
  c.wall.count = 5;
  c.wall.min = median - stddev;
  c.wall.max = median + stddev;
  c.wall.mean = median;
  c.wall.median = median;
  c.wall.p95 = median + stddev;
  c.wall.stddev = stddev;
  c.metrics = {{"cost", cost}};
  c.derived = {{"speedup", 1.0}};
  c.phases = {{"solve_molq", median}};
  report.cases.push_back(std::move(c));
  return report;
}

TEST(ReportTest, JsonRoundtripPreservesEverything) {
  const BenchReport report = MakeReport(0.125, 0.003, 42.5);
  const auto parsed = BenchReport::FromJson(report.ToJson());
  ASSERT_TRUE(parsed.ok());
  const BenchReport& r = parsed.value();
  EXPECT_EQ(r.suite, "unit");
  EXPECT_TRUE(r.machine.SameAs(report.machine));
  ASSERT_EQ(r.cases.size(), 1u);
  const BenchCaseResult& c = r.cases[0];
  EXPECT_EQ(c.bench, "b");
  EXPECT_EQ(c.name, "case/n=1");
  ASSERT_EQ(c.params.size(), 1u);
  EXPECT_EQ(c.params[0].second, "1");
  EXPECT_DOUBLE_EQ(c.wall.median, 0.125);
  EXPECT_DOUBLE_EQ(c.wall.stddev, 0.003);
  EXPECT_EQ(c.wall.count, 5u);
  ASSERT_EQ(c.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(c.metrics[0].second, 42.5);
  ASSERT_EQ(c.derived.size(), 1u);
  ASSERT_EQ(c.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(c.phases[0].second, 0.125);
}

TEST(ReportTest, SaveLoadRoundtrip) {
  const std::string path = testing::TempDir() + "/bench_report_rt.json";
  const BenchReport report = MakeReport(0.5, 0.01, 7.0);
  ASSERT_TRUE(report.Save(path).ok());
  const auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().cases.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.value().cases[0].wall.median, 0.5);
  std::remove(path.c_str());
}

TEST(ReportTest, LoadRejectsWrongSchema) {
  const std::string path = testing::TempDir() + "/bench_bad_schema.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"schema\": \"movd-bench/999\", \"suite\": \"x\"}", f);
  std::fclose(f);
  EXPECT_FALSE(BenchReport::Load(path).ok());
  std::remove(path.c_str());
}

TEST(ReportTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(BenchReport::Load("/nonexistent/bench.json").ok());
}

// ---------------------------------------------------------------- diff --

CaseVerdict SoleVerdict(const DiffResult& result) {
  EXPECT_EQ(result.cases.size(), 1u);
  return result.cases.empty() ? CaseVerdict::kWithinNoise
                              : result.cases[0].verdict;
}

TEST(DiffTest, IdenticalRerunPasses) {
  // A same-machine rerun with identical numbers must exit clean — the
  // acceptance criterion for `bench_diff old.json new.json` on a rerun.
  const BenchReport report = MakeReport(0.1, 0.001, 5.0);
  const DiffResult result = DiffReports(report, report, DiffOptions());
  EXPECT_FALSE(result.failed());
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kWithinNoise);
}

TEST(DiffTest, InjectedRegressionFails) {
  // +50% median on the same machine with tight stddev: a regression well
  // past the 20% threshold must fail the diff.
  const BenchReport old_report = MakeReport(0.1, 0.001, 5.0);
  const BenchReport new_report = MakeReport(0.15, 0.001, 5.0);
  const DiffResult result =
      DiffReports(old_report, new_report, DiffOptions());
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kRegression);
}

TEST(DiffTest, ImprovementDetected) {
  const BenchReport old_report = MakeReport(0.2, 0.001, 5.0);
  const BenchReport new_report = MakeReport(0.1, 0.001, 5.0);
  const DiffResult result =
      DiffReports(old_report, new_report, DiffOptions());
  EXPECT_FALSE(result.failed());
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kImprovement);
  EXPECT_EQ(result.improvements, 1);
}

TEST(DiffTest, SmallDeltaWithinNoise) {
  // +10% is under the 20% threshold: within noise.
  const BenchReport old_report = MakeReport(0.10, 0.002, 5.0);
  const BenchReport new_report = MakeReport(0.11, 0.002, 5.0);
  const DiffResult result =
      DiffReports(old_report, new_report, DiffOptions());
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kWithinNoise);
}

TEST(DiffTest, NoisyRunCannotRegress) {
  // +50% median but the stddev is huge (cv > max_noise_cv): the
  // noisy-machine gate reports within-noise instead of a false alarm.
  const BenchReport old_report = MakeReport(0.10, 0.05, 5.0);
  const BenchReport new_report = MakeReport(0.15, 0.05, 5.0);
  const DiffResult result =
      DiffReports(old_report, new_report, DiffOptions());
  EXPECT_FALSE(result.failed());
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kWithinNoise);
}

TEST(DiffTest, DeltaUnderNoiseFloorIsWithinNoise) {
  // 25% growth passes the threshold but not 3x the stddev: within noise.
  const BenchReport old_report = MakeReport(0.10, 0.02, 5.0);
  const BenchReport new_report = MakeReport(0.125, 0.02, 5.0);
  const DiffResult result =
      DiffReports(old_report, new_report, DiffOptions());
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kWithinNoise);
}

TEST(DiffTest, CrossMachineRegressionIsAdvisory) {
  const BenchReport old_report = MakeReport(0.1, 0.001, 5.0);
  BenchReport new_report = MakeReport(0.2, 0.001, 5.0);
  new_report.machine.host = "elsewhere";
  const DiffResult result =
      DiffReports(old_report, new_report, DiffOptions());
  EXPECT_FALSE(result.failed());
  EXPECT_FALSE(result.same_machine);
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kTimingAdvisory);

  DiffOptions strict;
  strict.cross_machine_timing = true;
  EXPECT_TRUE(DiffReports(old_report, new_report, strict).failed());
}

TEST(DiffTest, MetricDriftFailsEvenCrossMachine) {
  const BenchReport old_report = MakeReport(0.1, 0.001, 5.0);
  BenchReport new_report = MakeReport(0.1, 0.001, 5.001);
  new_report.machine.host = "elsewhere";
  const DiffResult result =
      DiffReports(old_report, new_report, DiffOptions());
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(SoleVerdict(result), CaseVerdict::kMetricMismatch);
}

TEST(DiffTest, DerivedValuesNeverGate) {
  const BenchReport old_report = MakeReport(0.1, 0.001, 5.0);
  BenchReport new_report = MakeReport(0.1, 0.001, 5.0);
  new_report.cases[0].derived = {{"speedup", 99.0}};
  EXPECT_FALSE(
      DiffReports(old_report, new_report, DiffOptions()).failed());
}

TEST(DiffTest, MissingCaseFailsNewCaseDoesNot) {
  const BenchReport old_report = MakeReport(0.1, 0.001, 5.0);
  BenchReport renamed = MakeReport(0.1, 0.001, 5.0);
  renamed.cases[0].name = "case/n=2";
  const DiffResult result =
      DiffReports(old_report, renamed, DiffOptions());
  EXPECT_TRUE(result.failed());
  ASSERT_EQ(result.cases.size(), 2u);
  EXPECT_EQ(result.cases[0].verdict, CaseVerdict::kMissingCase);
  EXPECT_EQ(result.cases[1].verdict, CaseVerdict::kNewCase);

  // A brand-new case alone (superset run) must not fail.
  BenchReport superset = MakeReport(0.1, 0.001, 5.0);
  BenchCaseResult extra = superset.cases[0];
  extra.name = "case/n=4";
  superset.cases.push_back(extra);
  EXPECT_FALSE(DiffReports(old_report, superset, DiffOptions()).failed());
}

TEST(DiffTest, VanishedSuitesNamesUncoveredBaselines) {
  // The file name does not decide the suite: BENCH_query.json holds the
  // suite the query_shapes binary reports.
  const std::string dir = testing::TempDir() + "/bench_vanished";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BenchReport report = MakeReport(0.1, 0.001, 5.0);
  report.suite = "query";
  ASSERT_TRUE(report.Save(dir + "/BENCH_query.json").ok());
  report.suite = "gone";
  ASSERT_TRUE(report.Save(dir + "/BENCH_gone.json").ok());
  std::FILE* f = std::fopen((dir + "/notes.txt").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  auto vanished = VanishedSuites(dir, {"query", "extra"});
  ASSERT_TRUE(vanished.ok());
  EXPECT_EQ(vanished.value(), std::vector<std::string>{"gone"});
  vanished = VanishedSuites(dir, {"gone", "query"});
  ASSERT_TRUE(vanished.ok());
  EXPECT_TRUE(vanished.value().empty());
  vanished = VanishedSuites(dir, {});
  ASSERT_TRUE(vanished.ok());
  EXPECT_EQ(vanished.value(), (std::vector<std::string>{"gone", "query"}));

  // A baseline that does not parse fails the check instead of hiding.
  f = std::fopen((dir + "/BENCH_bad.json").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{", f);
  std::fclose(f);
  EXPECT_FALSE(VanishedSuites(dir, {"gone", "query"}).ok());
  EXPECT_FALSE(VanishedSuites(dir + "/missing", {}).ok());
  std::filesystem::remove_all(dir);
}

TEST(DiffTest, MetricsOnlySkipsTimingVerdicts) {
  const BenchReport old_report = MakeReport(0.1, 0.001, 5.0);
  const BenchReport new_report = MakeReport(0.5, 0.001, 5.0);
  DiffOptions options;
  options.metrics_only = true;
  EXPECT_FALSE(DiffReports(old_report, new_report, options).failed());
}

// ------------------------------------------------------------- harness --

// A real registered bench: deterministic workload, one metric, params.
BENCH(harness_selftest) {
  const int64_t n = ctx.flags().GetInt("selftest_n", 64);
  BenchCase& c = ctx.Case("sum/n=" + std::to_string(n)).Param("n", n);
  double sum = 0.0;
  ctx.Measure(c, [&] {
    sum = 0.0;
    for (int64_t i = 0; i < n * 1000; ++i) {
      sum += static_cast<double>(i % 7);
    }
    Keep(sum);
  });
  c.Metric("sum", sum);
  c.Derived("ns_per_elem",
            c.wall().median / static_cast<double>(n * 1000) * 1e9);
}

TEST(HarnessTest, RunBenchesForTestProducesReport) {
  const BenchReport report = RunBenchesForTest(
      "selftest", {"--filter=harness_selftest", "--repetitions=3",
                   "--selftest_n=16"});
  EXPECT_EQ(report.suite, "selftest");
  EXPECT_EQ(report.config.repetitions, 3);
  ASSERT_EQ(report.cases.size(), 1u);
  const BenchCaseResult& c = report.cases[0];
  EXPECT_EQ(c.bench, "harness_selftest");
  EXPECT_EQ(c.name, "sum/n=16");
  EXPECT_EQ(c.wall.count + c.wall.outliers, 3u);
  EXPECT_GT(c.wall.median, 0.0);
  ASSERT_EQ(c.metrics.size(), 1u);
  EXPECT_EQ(c.metrics[0].first, "sum");
  ASSERT_EQ(c.derived.size(), 1u);
}

TEST(HarnessTest, RerunIsMetricDeterministicAndDiffClean) {
  const std::vector<std::string> args = {"--filter=harness_selftest",
                                         "--repetitions=2"};
  const BenchReport a = RunBenchesForTest("selftest", args);
  const BenchReport b = RunBenchesForTest("selftest", args);
  ASSERT_EQ(a.cases.size(), 1u);
  ASSERT_EQ(b.cases.size(), 1u);
  EXPECT_EQ(a.cases[0].metrics[0].second, b.cases[0].metrics[0].second);
  // The end-to-end acceptance shape: a same-machine rerun diffs clean.
  // Timing gates use a loose threshold here — a ~100us in-process loop
  // can jitter past 20% under a loaded test runner, and the strict verdict
  // semantics are pinned by the synthetic-report tests above; this test
  // pins the metric/case-identity path on real harness output.
  DiffOptions tolerant;
  tolerant.time_threshold = 5.0;
  EXPECT_FALSE(DiffReports(a, b, tolerant).failed());
}

TEST(HarnessTest, PhasesCanBeDisabled) {
  const BenchReport report = RunBenchesForTest(
      "selftest",
      {"--filter=harness_selftest", "--repetitions=1", "--phases=0"});
  ASSERT_EQ(report.cases.size(), 1u);
  EXPECT_TRUE(report.cases[0].phases.empty());
  EXPECT_FALSE(report.config.phases);
}

TEST(HarnessTest, ReportJsonRoundtripsThroughFile) {
  const BenchReport report = RunBenchesForTest(
      "selftest", {"--filter=harness_selftest", "--repetitions=1"});
  const std::string path = testing::TempDir() + "/bench_selftest.json";
  ASSERT_TRUE(report.Save(path).ok());
  const auto loaded = BenchReport::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(
      DiffReports(report, loaded.value(), DiffOptions()).failed());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace movd::bench
