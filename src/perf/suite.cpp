#include "perf/suite.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"
#include "lint/analyzer.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "perf/kernels.hpp"
#include "util/logging.hpp"

namespace alert::perf {

namespace {

namespace fs = std::filesystem;

/// Pinned workload sizes, full scale vs smoke scale.
struct Pin {
  std::size_t full;
  std::size_t smoke;
  [[nodiscard]] std::size_t at(bool smoke_scale) const {
    return smoke_scale ? smoke : full;
  }
};

constexpr Pin kDispatchEvents{400'000, 20'000};
constexpr Pin kQueryNodes{2'000, 300};
constexpr Pin kQueryCount{4'000, 400};
constexpr Pin kMacroNodes{200, 60};      ///< 200 = paper scale (Sec. 5.2)
constexpr Pin kMacroDurationS{100, 20};  ///< 100 s = paper scale
constexpr Pin kMicroRepeats{9, 3};
constexpr Pin kMacroRepeats{3, 2};
constexpr Pin kCampaignColdRepeats{3, 2};
constexpr Pin kCampaignWarmRepeats{7, 3};

/// Campaign-kernel sweep shape (4 units: 2 speeds x 2 replications).
constexpr Pin kCampaignNodes{100, 50};
constexpr Pin kCampaignDurationS{60, 15};
constexpr std::size_t kCampaignReps = 2;

[[nodiscard]] MeasureOptions options_for(const SuiteOptions& suite,
                                         const Pin& repeats,
                                         std::size_t warmup) {
  MeasureOptions m;
  m.warmup = warmup;
  m.repeats = suite.repeats != 0 ? suite.repeats : repeats.at(suite.smoke);
  return m;
}

/// Which order statistic a metric commits. Median for wall-clock
/// throughput (two-sided noise once I/O and scheduling are in the loop);
/// min for pure-CPU ns/op kernels, where interference only ever adds time,
/// so the minimum is the stable estimate of the true cost and the median
/// tracks whatever else the machine was doing.
enum class Stat { Median, Min };

[[nodiscard]] BenchMetric metric_from(std::string name, std::string unit,
                                      const Measurement& m, Stat stat,
                                      bool higher_is_better,
                                      double tolerance_pct) {
  BenchMetric out;
  out.name = std::move(name);
  out.unit = std::move(unit);
  out.value = stat == Stat::Min ? m.min : m.median;
  out.iqr = m.iqr;
  out.repeats = m.repeats;
  out.higher_is_better = higher_is_better;
  out.tolerance_pct = tolerance_pct;
  return out;
}

void add_peak_rss(BenchReport& report) {
  BenchMetric rss;
  rss.name = "peak_rss_bytes";
  rss.unit = "bytes";
  rss.value = static_cast<double>(obs::peak_rss_bytes());
  rss.repeats = 1;
  rss.higher_is_better = false;
  // Wide: RSS folds in allocator behaviour and whatever ran earlier in the
  // process; the gate is for catching leaks-at-scale, not kB drift.
  rss.tolerance_pct = 50.0;
  report.add_metric(std::move(rss));
}

[[nodiscard]] BenchReport make_report(const char* suite) {
  BenchReport report;
  report.suite = suite;
  report.version = obs::build_version();
  report.host = HostFingerprint::current();
  return report;
}

// --- core suite -------------------------------------------------------------

[[nodiscard]] BenchReport run_core_suite(const SuiteOptions& options) {
  BenchReport report = make_report("core");

  const std::size_t dispatch_events = kDispatchEvents.at(options.smoke);
  const Measurement dispatch = measure(
      [dispatch_events] {
        const std::uint64_t start = obs::monotonic_ns();
        const std::uint64_t executed = run_dispatch_batch(dispatch_events);
        const std::uint64_t elapsed = obs::monotonic_ns() - start;
        return static_cast<double>(elapsed) / static_cast<double>(executed);
      },
      options_for(options, kMicroRepeats, 1));
  // 40%: the pure-CPU kernels see sustained host-frequency drift of
  // +-15% between invocations even on the min statistic; a genuine
  // regression that matters is well past 1.4x.
  report.add_metric(metric_from("ns_per_event_dispatch", "ns/op", dispatch,
                         Stat::Min, /*higher_is_better=*/false, 40.0));
  ALERT_LOG_INFO("perf core: ns_per_event_dispatch %.1f (iqr %.1f)",
                 dispatch.median, dispatch.iqr);

  const QueryTopology topology(kQueryNodes.at(options.smoke));
  const std::size_t queries = kQueryCount.at(options.smoke);
  const Measurement query = measure(
      [&topology, queries] {
        const std::uint64_t start = obs::monotonic_ns();
        const std::uint64_t found = topology.run_queries(queries);
        const std::uint64_t elapsed = obs::monotonic_ns() - start;
        ALERT_INVARIANT(found > 0, "query kernel found no neighbours");
        return static_cast<double>(elapsed) / static_cast<double>(queries);
      },
      options_for(options, kMicroRepeats, 1));
  report.add_metric(metric_from("ns_per_neighbour_query", "ns/op", query,
                         Stat::Min, /*higher_is_better=*/false, 40.0));
  ALERT_LOG_INFO("perf core: ns_per_neighbour_query %.1f (iqr %.1f)",
                 query.median, query.iqr);

  // One timed fig14a-style replication yields both throughput metrics, so
  // events/s and packets/s always describe the same runs.
  const core::ScenarioConfig macro = macro_scenario(
      kMacroNodes.at(options.smoke),
      static_cast<double>(kMacroDurationS.at(options.smoke)));
  const MeasureOptions macro_opts = options_for(options, kMacroRepeats, 1);
  std::vector<double> events_per_s;
  std::vector<double> packets_per_s;
  for (std::size_t i = 0; i < macro_opts.warmup + macro_opts.repeats; ++i) {
    const std::uint64_t start = obs::monotonic_ns();
    const MacroRunStats stats = run_macro_once(macro);
    const double wall_s =
        static_cast<double>(obs::monotonic_ns() - start) / 1e9;
    ALERT_INVARIANT(stats.events_executed > 0 && wall_s > 0.0,
                    "macro kernel executed no events");
    if (i < macro_opts.warmup) continue;
    events_per_s.push_back(static_cast<double>(stats.events_executed) /
                           wall_s);
    packets_per_s.push_back(static_cast<double>(stats.frames_tx) / wall_s);
  }
  report.add_metric(metric_from("events_per_s", "events/s",
                         summarize(std::move(events_per_s)), Stat::Median,
                         /*higher_is_better=*/true, 30.0));
  report.add_metric(metric_from("packets_per_s", "packets/s",
                         summarize(std::move(packets_per_s)), Stat::Median,
                         /*higher_is_better=*/true, 30.0));

  add_peak_rss(report);
  return report;
}

// --- campaign suite ---------------------------------------------------------

/// The campaign kernel sweep: 2 speed points x kCampaignReps replications
/// through the real engine + result cache. The reducer is a no-op — the
/// kernel measures scheduling/cache throughput, not figures.
[[nodiscard]] campaign::CampaignSpec campaign_kernel_spec(bool smoke) {
  campaign::CampaignSpec spec;
  spec.name = "perf_campaign_kernel";
  spec.title = "perf: campaign kernel sweep";
  spec.fallback_reps = kCampaignReps;
  spec.reduce = [](const std::vector<campaign::PointResult>&,
                   const campaign::ReduceContext&, obs::RunManifest&) {};
  core::ScenarioConfig base = campaign::paper_default_scenario();
  base.node_count = kCampaignNodes.at(smoke);
  base.duration_s = static_cast<double>(kCampaignDurationS.at(smoke));
  base.flow_count = 6;
  for (const double speed : {2.0, 4.0}) {
    campaign::PointSpec point;
    point.curve = "kernel";
    point.x = speed;
    point.config = base;
    point.config.speed_mps = speed;
    spec.points.push_back(std::move(point));
  }
  return spec;
}

[[nodiscard]] BenchReport run_campaign_suite(const SuiteOptions& options) {
  BenchReport report = make_report("campaign");

  const fs::path work_dir =
      options.work_dir.empty()
          ? fs::temp_directory_path() / "alertsim-perf-campaign"
          : fs::path(options.work_dir);
  const campaign::CampaignSpec spec = campaign_kernel_spec(options.smoke);

  campaign::CampaignOptions engine_options;
  engine_options.reps = kCampaignReps;
  engine_options.threads = 1;  // serial scheduling: stable units/s
  engine_options.cache_dir = (work_dir / "cache").string();
  engine_options.print = false;

  const auto reset_cache = [&engine_options] {
    std::error_code ec;
    fs::remove_all(engine_options.cache_dir, ec);
  };

  // Cold path: every repeat starts from an empty cache, so the measured
  // units/s covers simulation + content-addressed store + journal.
  const Measurement cold = measure(
      [&spec, &engine_options, &reset_cache] {
        reset_cache();
        const std::uint64_t start = obs::monotonic_ns();
        const campaign::CampaignOutcome outcome =
            campaign::run_campaign(spec, engine_options);
        const double wall_s =
            static_cast<double>(obs::monotonic_ns() - start) / 1e9;
        ALERT_INVARIANT(outcome.executed == outcome.units_total,
                        "cold campaign kernel served units from cache");
        return static_cast<double>(outcome.executed) / wall_s;
      },
      options_for(options, kCampaignColdRepeats, 1));
  report.add_metric(metric_from("campaign_units_per_s_cold", "units/s", cold,
                         Stat::Median, /*higher_is_better=*/true, 35.0));
  ALERT_LOG_INFO("perf campaign: cold %.2f units/s (iqr %.2f)", cold.median,
                 cold.iqr);

  // Warm path: the last cold repeat left a fully populated cache; every
  // warm repeat must execute 0 units (pure replay throughput).
  const Measurement warm = measure(
      [&spec, &engine_options] {
        const std::uint64_t start = obs::monotonic_ns();
        const campaign::CampaignOutcome outcome =
            campaign::run_campaign(spec, engine_options);
        const double wall_s =
            static_cast<double>(obs::monotonic_ns() - start) / 1e9;
        ALERT_INVARIANT(outcome.executed == 0,
                        "warm campaign kernel executed units");
        return static_cast<double>(outcome.units_total) / wall_s;
      },
      options_for(options, kCampaignWarmRepeats, 1));
  // Warm replay is milliseconds of wall time, so the relative noise floor
  // is intrinsically higher than the cold path's.
  report.add_metric(metric_from("campaign_units_per_s_warm", "units/s", warm,
                         Stat::Median, /*higher_is_better=*/true, 60.0));
  ALERT_LOG_INFO("perf campaign: warm %.2f units/s (iqr %.2f)", warm.median,
                 warm.iqr);

  {
    std::error_code ec;
    fs::remove_all(work_dir, ec);
  }
  add_peak_rss(report);
  return report;
}

// --- scale suite ------------------------------------------------------------

/// Arena-scale pins: at 10k nodes the grid's complexity gap over the scan
/// dominates constant factors, yet a full-scale suite run still finishes
/// in minutes. Both sizes (full and smoke) select the grid.
constexpr Pin kScaleQueryNodes{10'000, 2'000};
constexpr Pin kScaleQueryCount{4'000, 400};
constexpr Pin kScaleMacroNodes{10'000, 1'000};
constexpr Pin kScaleMacroDurationS{5, 2};

/// Median events/s over the pinned repeats of one macro configuration
/// (warmup discarded). Same timing shape as the core suite's macro leg.
[[nodiscard]] Measurement measure_macro_events_per_s(
    const core::ScenarioConfig& config, const MeasureOptions& opts) {
  std::vector<double> events_per_s;
  for (std::size_t i = 0; i < opts.warmup + opts.repeats; ++i) {
    const std::uint64_t start = obs::monotonic_ns();
    const MacroRunStats stats = run_macro_once(config);
    const double wall_s =
        static_cast<double>(obs::monotonic_ns() - start) / 1e9;
    ALERT_INVARIANT(stats.events_executed > 0 && wall_s > 0.0,
                    "scale macro kernel executed no events");
    if (i < opts.warmup) continue;
    events_per_s.push_back(static_cast<double>(stats.events_executed) /
                           wall_s);
  }
  return summarize(std::move(events_per_s));
}

[[nodiscard]] BenchReport run_scale_suite(const SuiteOptions& options) {
  BenchReport report = make_report("scale");

  // Grid neighbour query at paper density: the arena grows with the
  // population (sqrt(n/200) km side), so the disc covers O(k) nodes and
  // the measured cost is the index, not the answer size.
  const std::size_t query_nodes = kScaleQueryNodes.at(options.smoke);
  const double side =
      std::sqrt(static_cast<double>(query_nodes) / 200.0) * 1000.0;
  const QueryTopology topology(query_nodes, kKernelSeed, side);
  const std::size_t queries = kScaleQueryCount.at(options.smoke);
  const Measurement query = measure(
      [&topology, queries] {
        const std::uint64_t start = obs::monotonic_ns();
        const std::uint64_t found = topology.run_queries(queries);
        const std::uint64_t elapsed = obs::monotonic_ns() - start;
        ALERT_INVARIANT(found > 0, "grid query kernel found no neighbours");
        return static_cast<double>(elapsed) / static_cast<double>(queries);
      },
      options_for(options, kMicroRepeats, 1));
  report.add_metric(metric_from("ns_per_neighbour_query_grid", "ns/op", query,
                         Stat::Min, /*higher_is_better=*/false, 40.0));
  ALERT_LOG_INFO("perf scale: ns_per_neighbour_query_grid %.1f (iqr %.1f)",
                 query.median, query.iqr);

  // The 10k-node fig14a-style macro run at paper density.
  const std::size_t macro_nodes = kScaleMacroNodes.at(options.smoke);
  const double macro_duration =
      static_cast<double>(kScaleMacroDurationS.at(options.smoke));
  const Measurement macro = measure_macro_events_per_s(
      scale_scenario(macro_nodes, macro_duration),
      options_for(options, kMacroRepeats, 1));
  report.add_metric(metric_from("events_per_s_10k", "events/s", macro,
                         Stat::Median, /*higher_is_better=*/true, 30.0));
  ALERT_LOG_INFO("perf scale: events_per_s_10k %.0f", macro.median);

  add_peak_rss(report);
  return report;
}

// --- lint suite -------------------------------------------------------------

/// Synthetic-tree pins: the scan workload must not drift as the real src/
/// tree grows, so the suite lints a generated tree of fixed shape instead.
/// 160 files ~ the real tree's size at the time the pin was chosen.
constexpr Pin kLintFiles{160, 24};
constexpr Pin kLintRepeats{5, 2};

/// One deterministic synthetic TU: exercises the flow-sensitive families
/// (CFG + dataflow over loops and moves, lock-graph edges from the guard
/// pair) and the token rules, while staying finding-free so the measured
/// cost is analysis, not Sink/report traffic. Only names vary with `i`.
[[nodiscard]] std::string lint_synthetic_source(std::size_t i) {
  const std::string n = std::to_string(i);
  std::string out;
  out += "#include <mutex>\n#include <string>\n#include <utility>\n";
  out += "#include <vector>\n\n";
  out += "namespace alert::sim {\n\n";
  out += "class Worker" + n + " {\n public:\n";
  out += "  double digest(const std::vector<double>& samples) {\n";
  out += "    double total = 0.0;\n";
  out += "    for (unsigned long k = 0; k < samples.size(); ++k) {\n";
  out += "      total += samples[k];\n";
  out += "    }\n";
  out += "    return total;\n";
  out += "  }\n";
  out += "  void credit() {\n";
  out += "    std::lock_guard<std::mutex> a(first_);\n";
  out += "    std::lock_guard<std::mutex> b(second_);\n";
  out += "    ++balance_;\n";
  out += "  }\n";
  out += "  void debit() {\n";
  out += "    std::lock_guard<std::mutex> a(first_);\n";
  out += "    std::lock_guard<std::mutex> b(second_);\n";
  out += "    --balance_;\n";
  out += "  }\n";
  out += "  std::string consume" + n + "(std::string label) {\n";
  out += "    std::string stored = std::move(label);\n";
  out += "    label = stored;\n";
  out += "    switch (label.size() % 3) {\n";
  out += "      case 0: stored += \"a\"; break;\n";
  out += "      case 1: stored += \"b\"; break;\n";
  out += "      default: stored += \"c\"; break;\n";
  out += "    }\n";
  out += "    return stored + label;\n";
  out += "  }\n";
  out += " private:\n";
  out += "  std::mutex first_;\n";
  out += "  std::mutex second_;\n";
  out += "  long balance_ = 0;\n";
  out += "};\n\n}  // namespace alert::sim\n";
  return out;
}

[[nodiscard]] BenchReport run_lint_suite(const SuiteOptions& options) {
  BenchReport report = make_report("lint");

  const fs::path work_dir =
      options.work_dir.empty()
          ? fs::temp_directory_path() / "alertsim-perf-lint"
          : fs::path(options.work_dir);
  const std::size_t files = kLintFiles.at(options.smoke);
  {
    std::error_code ec;
    fs::remove_all(work_dir, ec);
    fs::create_directories(work_dir / "sim");
    fs::create_directories(work_dir / "util");
    for (std::size_t i = 0; i < files; ++i) {
      const fs::path dir = work_dir / (i % 2 == 0 ? "sim" : "util");
      std::ofstream out(dir / ("gen_" + std::to_string(i) + ".cpp"));
      out << lint_synthetic_source(i);
    }
  }

  analysis_tools::AnalyzerOptions scan;
  scan.root = work_dir.string();
  scan.threads = 1;  // serial scan: stable ms independent of runner cores
  const Measurement elapsed = measure(
      [&scan, files] {
        const std::uint64_t start = obs::monotonic_ns();
        const analysis_tools::AnalyzeResult r = analysis_tools::analyze(scan);
        const double wall_ms =
            static_cast<double>(obs::monotonic_ns() - start) / 1e6;
        ALERT_INVARIANT(r.report.files_scanned == files,
                        "lint kernel scanned the wrong tree");
        ALERT_INVARIANT(r.report.findings.empty(),
                        "lint kernel tree is not finding-free");
        return wall_ms;
      },
      options_for(options, kLintRepeats, 1));
  // Wall-clock over file I/O + every rule phase; median with the usual
  // macro-style tolerance.
  report.add_metric(metric_from("lint_scan_ms", "ms", elapsed, Stat::Median,
                         /*higher_is_better=*/false, 35.0));
  ALERT_LOG_INFO("perf lint: lint_scan_ms %.1f (iqr %.1f)", elapsed.median,
                 elapsed.iqr);

  {
    std::error_code ec;
    fs::remove_all(work_dir, ec);
  }
  add_peak_rss(report);
  return report;
}

}  // namespace

const std::vector<std::string>& suite_names() {
  static const std::vector<std::string> names{"core", "campaign", "scale",
                                              "lint"};
  return names;
}

std::string baseline_filename(std::string_view suite) {
  return "BENCH_" + std::string(suite) + ".json";
}

std::optional<BenchReport> run_suite(std::string_view suite,
                                     const SuiteOptions& options) {
  if (suite == "core") return run_core_suite(options);
  if (suite == "campaign") return run_campaign_suite(options);
  if (suite == "scale") return run_scale_suite(options);
  if (suite == "lint") return run_lint_suite(options);
  return std::nullopt;
}

}  // namespace alert::perf
