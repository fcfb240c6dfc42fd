// Unit tests for alert::perf: the measurement statistics, the
// "alertsim-bench/1" report codec, the regression-gate arithmetic behind
// tools/alertsim-perf --check, and the smoke-scale suites end to end.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/resource.hpp"
#include "perf/compare.hpp"
#include "perf/kernels.hpp"
#include "perf/measure.hpp"
#include "perf/report.hpp"
#include "perf/suite.hpp"
#include "temp_dir.hpp"

namespace alert::perf {
namespace {

// --- measure.hpp ------------------------------------------------------------

TEST(Measure, QuantileInterpolatesSortedSamples) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted({7.0}, 0.9), 7.0);
}

TEST(Measure, SummarizeComputesMedianAndIqr) {
  const Measurement m = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(m.median, 3.0);
  EXPECT_DOUBLE_EQ(m.iqr, 2.0);  // q75=4, q25=2
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 5.0);
  EXPECT_EQ(m.repeats, 5u);
  EXPECT_TRUE(std::is_sorted(m.samples.begin(), m.samples.end()));
}

TEST(Measure, MedianIsRobustToOneOutlier) {
  // One preempted repeat must not move the committed value.
  const Measurement m = summarize({10.0, 10.0, 10.0, 10.0, 500.0});
  EXPECT_DOUBLE_EQ(m.median, 10.0);
}

TEST(Measure, MeasureDiscardsWarmupRuns) {
  MeasureOptions options;
  options.warmup = 2;
  options.repeats = 3;
  int calls = 0;
  const Measurement m = measure(
      [&calls] {
        ++calls;
        return static_cast<double>(calls);  // warmups are 1,2; kept 3,4,5
      },
      options);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(m.repeats, 3u);
  EXPECT_DOUBLE_EQ(m.median, 4.0);
  EXPECT_DOUBLE_EQ(m.min, 3.0);
}

// --- report.hpp -------------------------------------------------------------

BenchMetric metric(const char* name, double value, bool higher_is_better,
                   double tolerance_pct = 25.0) {
  BenchMetric m;
  m.name = name;
  m.unit = higher_is_better ? "events/s" : "ns/op";
  m.value = value;
  m.iqr = value / 100.0;
  m.repeats = 7;
  m.higher_is_better = higher_is_better;
  m.tolerance_pct = tolerance_pct;
  return m;
}

BenchReport sample_report() {
  BenchReport r;
  r.suite = "core";
  r.version = "v1.2-test";
  r.host = HostFingerprint::current();
  r.add_metric(metric("ns_per_event_dispatch", 250.0, false));
  r.add_metric(metric("events_per_s", 1.0e6, true));
  r.add_metric(metric("peak_rss_bytes", 8.0e6, false, 50.0));
  return r;
}

TEST(Report, AddKeepsMetricsSortedAndFindable) {
  const BenchReport r = sample_report();
  ASSERT_EQ(r.metrics.size(), 3u);
  EXPECT_EQ(r.metrics[0].name, "events_per_s");
  EXPECT_EQ(r.metrics[1].name, "ns_per_event_dispatch");
  EXPECT_EQ(r.metrics[2].name, "peak_rss_bytes");
  ASSERT_NE(r.find("events_per_s"), nullptr);
  EXPECT_DOUBLE_EQ(r.find("events_per_s")->value, 1.0e6);
  EXPECT_EQ(r.find("nonexistent"), nullptr);
}

TEST(Report, JsonRoundTripPreservesEverything) {
  const BenchReport r = sample_report();
  std::ostringstream out;
  r.write_json(out);
  std::string error;
  const auto parsed = load_report(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->suite, r.suite);
  EXPECT_EQ(parsed->version, r.version);
  EXPECT_TRUE(parsed->host == r.host);
  ASSERT_EQ(parsed->metrics.size(), r.metrics.size());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    EXPECT_EQ(parsed->metrics[i].name, r.metrics[i].name);
    EXPECT_EQ(parsed->metrics[i].unit, r.metrics[i].unit);
    EXPECT_DOUBLE_EQ(parsed->metrics[i].value, r.metrics[i].value);
    EXPECT_DOUBLE_EQ(parsed->metrics[i].iqr, r.metrics[i].iqr);
    EXPECT_EQ(parsed->metrics[i].repeats, r.metrics[i].repeats);
    EXPECT_EQ(parsed->metrics[i].higher_is_better,
              r.metrics[i].higher_is_better);
    EXPECT_DOUBLE_EQ(parsed->metrics[i].tolerance_pct,
                     r.metrics[i].tolerance_pct);
  }
  // A second encode of the parse is byte-identical: the codec is stable.
  std::ostringstream again;
  parsed->write_json(again);
  EXPECT_EQ(again.str(), out.str());
}

TEST(Report, LoadRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(load_report("not json at all", &error).has_value());
  EXPECT_FALSE(load_report("{}", &error).has_value());
  EXPECT_FALSE(
      load_report(R"({"schema":"alertsim-bench/999","suite":"core",)"
                  R"("version":"v","host":{},"metrics":[]})",
                  &error)
          .has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);
  // Missing required metric fields.
  EXPECT_FALSE(
      load_report(R"({"schema":"alertsim-bench/1","suite":"core",)"
                  R"("version":"v","host":{"os":"linux","compiler":"x",)"
                  R"("build_type":"release","hardware_threads":1},)"
                  R"("metrics":[{"name":"a"}]})",
                  &error)
          .has_value());
  // Duplicate metric names.
  EXPECT_FALSE(
      load_report(
          R"({"schema":"alertsim-bench/1","suite":"core","version":"v",)"
          R"("host":{"os":"linux","compiler":"x","build_type":"release",)"
          R"("hardware_threads":1},"metrics":[)"
          R"({"name":"a","unit":"ns/op","value":1,"tolerance_pct":10},)"
          R"({"name":"a","unit":"ns/op","value":2,"tolerance_pct":10}]})",
          &error)
          .has_value());
  // Non-positive tolerance would make the gate vacuous.
  EXPECT_FALSE(
      load_report(
          R"({"schema":"alertsim-bench/1","suite":"core","version":"v",)"
          R"("host":{"os":"linux","compiler":"x","build_type":"release",)"
          R"("hardware_threads":1},"metrics":[)"
          R"({"name":"a","unit":"ns/op","value":1,"tolerance_pct":0}]})",
          &error)
          .has_value());
}

// --- compare.hpp ------------------------------------------------------------

TEST(Compare, IdenticalReportsPass) {
  const BenchReport r = sample_report();
  const ComparisonReport cmp = compare_reports(r, r, {});
  EXPECT_TRUE(cmp.passed());
  EXPECT_EQ(cmp.count(Verdict::Ok), r.metrics.size());
  EXPECT_TRUE(cmp.notes.empty());
}

TEST(Compare, WithinToleranceIsOk) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  // +20% on a 25%-tolerance lower-is-better metric: inside the gate.
  cur.metrics[1].value = 300.0;
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_TRUE(cmp.passed());
  EXPECT_EQ(cmp.items[1].verdict, Verdict::Ok);
  EXPECT_NEAR(cmp.items[1].delta_pct, 20.0, 1e-9);
}

TEST(Compare, LowerIsBetterRegressionTripsGate) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics[1].value = 400.0;  // ns/op +60% > 25%
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_FALSE(cmp.passed());
  EXPECT_EQ(cmp.items[1].verdict, Verdict::Regressed);
}

TEST(Compare, HigherIsBetterRegressionTripsGate) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics[0].value = 0.5e6;  // events/s -50% > 25%
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_FALSE(cmp.passed());
  EXPECT_EQ(cmp.items[0].verdict, Verdict::Regressed);
}

TEST(Compare, ThroughputCollapseTripsScaledGate) {
  // A 10x events/s drop is a 900% slowdown. Read as -delta_pct it would be
  // 90%, which CI's scale 4.0 (25% -> 100%) could never exceed.
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics[0].value = 1.0e5;
  CompareOptions ci;
  ci.tolerance_scale = 4.0;
  const ComparisonReport cmp = compare_reports(base, cur, ci);
  EXPECT_FALSE(cmp.passed());
  EXPECT_EQ(cmp.items[0].verdict, Verdict::Regressed);
  EXPECT_NEAR(cmp.items[0].delta_pct, -90.0, 1e-9);  // displayed as before
}

TEST(Compare, SmallThroughputDropStaysOk) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics[0].value = 0.9e6;  // -10%: an 11.1% slowdown, inside 25%
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_TRUE(cmp.passed());
  EXPECT_EQ(cmp.items[0].verdict, Verdict::Ok);
}

TEST(Compare, ImprovementIsReportedNotFailed) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics[1].value = 100.0;  // ns/op -60%: improvement
  cur.metrics[0].value = 2.0e6;  // events/s +100%: improvement
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_TRUE(cmp.passed());
  EXPECT_EQ(cmp.items[0].verdict, Verdict::Improved);
  EXPECT_EQ(cmp.items[1].verdict, Verdict::Improved);
}

TEST(Compare, ToleranceScaleWidensTheGate) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics[1].value = 400.0;  // +60%: fails at scale 1
  CompareOptions wide;
  wide.tolerance_scale = 3.0;  // 25% -> 75%: passes
  EXPECT_FALSE(compare_reports(base, cur, {}).passed());
  EXPECT_TRUE(compare_reports(base, cur, wide).passed());
}

TEST(Compare, MissingBaselineMetricFailsTheGate) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics.erase(cur.metrics.begin());  // drop events_per_s
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_FALSE(cmp.passed());
  EXPECT_EQ(cmp.count(Verdict::MissingInCurrent), 1u);
}

TEST(Compare, NewCurrentMetricIsNoteOnly) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.add_metric(metric("ns_per_new_thing", 10.0, false));
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_TRUE(cmp.passed());
  EXPECT_EQ(cmp.count(Verdict::NewInCurrent), 1u);
  ASSERT_FALSE(cmp.notes.empty());
  EXPECT_NE(cmp.notes[0].find("ns_per_new_thing"), std::string::npos);
}

TEST(Compare, ZeroBaselineOnlyFailsOnWorseDirection) {
  BenchReport base = sample_report();
  base.metrics[1].value = 0.0;  // lower-is-better baseline at zero
  BenchReport cur = base;
  EXPECT_TRUE(compare_reports(base, cur, {}).passed());
  cur.metrics[1].value = 5.0;  // any growth from zero is unbounded
  EXPECT_FALSE(compare_reports(base, cur, {}).passed());
}

TEST(Compare, HostMismatchIsANoteNotAFailure) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.host.compiler = "different-compiler";
  const ComparisonReport cmp = compare_reports(base, cur, {});
  EXPECT_TRUE(cmp.passed());
  ASSERT_FALSE(cmp.notes.empty());
  EXPECT_NE(cmp.notes.back().find("fingerprint"), std::string::npos);
}

TEST(Compare, RenderMentionsEveryMetricAndVerdict) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics[1].value = 1000.0;
  const std::string table = compare_reports(base, cur, {}).render();
  EXPECT_NE(table.find("ns_per_event_dispatch"), std::string::npos);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
}

// --- kernels + suites (smoke scale) ----------------------------------------

TEST(Kernels, DispatchBatchExecutesEveryEvent) {
  // The hold kernel keeps 512 events pending until its budget runs out;
  // every event it schedules fires exactly once.
  EXPECT_EQ(run_dispatch_hold(512), 512u);
  EXPECT_EQ(run_dispatch_hold(5000), 5000u);
}

TEST(Kernels, QueryTopologyIsDeterministic) {
  const QueryTopology a(50);
  const QueryTopology b(50);
  const std::uint64_t found = a.run_queries(200);
  EXPECT_GT(found, 0u);
  EXPECT_EQ(found, b.run_queries(200));
  EXPECT_EQ(found, a.run_queries(200));  // re-query: same centers, same count
}

/// The committed baseline of `suite`, read from the source tree (this file
/// sits at tests/perf/ under the repository root).
std::optional<BenchReport> committed_baseline(const std::string& suite) {
  const std::filesystem::path root =
      std::filesystem::path(__FILE__).parent_path().parent_path().parent_path();
  return load_report_file((root / baseline_filename(suite)).string());
}

TEST(Suite, SmokeCoreSuiteProducesThePinnedMetrics) {
  // Every suite measures exactly the rows its committed baseline gates, so
  // a renamed or dropped row fails here rather than in CI's perf-gate.
  const test_support::TempDir work("perf_suite");
  SuiteOptions options;
  options.smoke = true;
  options.repeats = 1;
  options.work_dir = work.path();
  for (const std::string& suite : suite_names()) {
    const auto baseline = committed_baseline(suite);
    ASSERT_TRUE(baseline.has_value()) << baseline_filename(suite);
    EXPECT_EQ(baseline->suite, suite);
    const auto report = run_suite(suite, options);
    ASSERT_TRUE(report.has_value()) << suite;
    EXPECT_EQ(report->suite, suite);
    EXPECT_FALSE(report->version.empty());
    std::vector<std::string> measured;
    for (const BenchMetric& m : report->metrics) {
      measured.push_back(m.name);
      EXPECT_GT(m.value, 0.0) << suite << ' ' << m.name;
      EXPECT_GT(m.tolerance_pct, 0.0) << suite << ' ' << m.name;
    }
    std::vector<std::string> committed;
    for (const BenchMetric& m : baseline->metrics) committed.push_back(m.name);
    EXPECT_EQ(measured, committed) << suite;
  }
}

TEST(Suite, UnknownSuiteIsRejected) {
  for (const char* name : {"nonsense", "campaign", "lint", "all"}) {
    EXPECT_FALSE(run_suite(name, {}).has_value()) << name;
  }
  EXPECT_EQ(baseline_filename("core"), "BENCH_core.json");
}

// --- satellite: peak RSS plumbing ------------------------------------------

TEST(Resource, PeakRssIsNonZeroOnThisPlatform) {
  EXPECT_GT(obs::peak_rss_bytes(), 0u);
}

TEST(Resource, ManifestEmitsPeakRssOnlyWhenStamped) {
  obs::RunManifest manifest;
  std::ostringstream without;
  manifest.write_json(without);
  EXPECT_EQ(without.str().find("peak_rss_bytes"), std::string::npos);

  manifest.peak_rss_bytes = obs::peak_rss_bytes();
  std::ostringstream with;
  manifest.write_json(with);
  EXPECT_NE(with.str().find("\"peak_rss_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace alert::perf
