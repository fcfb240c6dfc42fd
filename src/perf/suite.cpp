#include "perf/suite.hpp"

#include <cmath>
#include <filesystem>
#include <functional>
#include <system_error>
#include <utility>

#include "campaign/engine.hpp"
#include "campaign/figures.hpp"
#include "core/experiment.hpp"
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
constexpr Pin kSha1Ops{10'000, 1'000};
constexpr Pin kXteaOps{5'000, 500};
constexpr Pin kRsaEncryptOps{200'000, 20'000};
constexpr Pin kRsaDecryptOps{163'840, 16'384};
constexpr Pin kKeygenOps{5'000, 500};
constexpr Pin kMacroNodes{200, 60};      ///< 200 = paper scale (Sec. 5.2)
constexpr Pin kMacroDurationS{100, 20};  ///< 100 s = paper scale
constexpr Pin kMicroRepeats{9, 3};
constexpr Pin kMacroRepeats{3, 2};

/// Arena-scale pins: at 10k nodes the grid's complexity gap over the scan
/// dominates constant factors, yet a full-scale suite run still finishes
/// in a minute. Both sizes (full and smoke) select the grid.
constexpr Pin kScaleQueryNodes{10'000, 2'000};
constexpr Pin kScaleQueryCount{4'000, 400};
constexpr Pin kScaleMacroNodes{10'000, 1'000};
constexpr Pin kScaleMacroDurationS{5, 2};
constexpr Pin kScaleMacroRepeats{9, 2};

constexpr Pin kPaperRepeats{3, 1};
/// The smoke paper pass: one cheap registry figure that simulates units.
constexpr const char* kPaperSmokeFigure = "fig12_destination_anonymity";

[[nodiscard]] MeasureOptions options_for(const SuiteOptions& suite,
                                         const Pin& repeats) {
  MeasureOptions m;
  m.warmup = 1;
  m.repeats = suite.repeats != 0 ? suite.repeats : repeats.at(suite.smoke);
  return m;
}

[[nodiscard]] double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) / 1e9;
}

/// Which order statistic a metric commits. Median for wall-clock
/// throughput (two-sided noise once I/O and scheduling are in the loop);
/// min for pure-CPU ns/op kernels, where interference only ever adds time,
/// so the minimum is the stable estimate of the true cost and the median
/// tracks whatever else the machine was doing.
enum class Stat { Median, Min };

void add_metric(BenchReport& report, std::string name, std::string unit,
                const Measurement& m, Stat stat, bool higher_is_better,
                double tolerance_pct) {
  BenchMetric out;
  out.name = std::move(name);
  out.unit = std::move(unit);
  out.value = stat == Stat::Min ? m.min : m.median;
  out.iqr = m.iqr;
  out.repeats = m.repeats;
  out.higher_is_better = higher_is_better;
  out.tolerance_pct = tolerance_pct;
  ALERT_LOG_INFO("perf %s: %s %.4g %s (iqr %.4g)", report.suite.c_str(),
                 out.name.c_str(), out.value, out.unit.c_str(), m.iqr);
  report.add_metric(std::move(out));
}

/// An ns/op row: `kernel(ops)` timed once per repeat. The kernel returns a
/// checksum of its work; zero means it did none.
void add_ns_per_op(BenchReport& report, const char* name, const Pin& ops,
                   const std::function<std::uint64_t(std::size_t)>& kernel,
                   const SuiteOptions& options) {
  const std::size_t n = ops.at(options.smoke);
  const Measurement m = measure(
      [&kernel, n] {
        const std::uint64_t start = obs::monotonic_ns();
        const std::uint64_t checksum = kernel(n);
        const std::uint64_t elapsed = obs::monotonic_ns() - start;
        ALERT_INVARIANT(checksum != 0, "perf kernel did no work");
        return static_cast<double>(elapsed) / static_cast<double>(n);
      },
      options_for(options, kMicroRepeats));
  // 40%: the pure-CPU kernels see sustained host-frequency drift of
  // +-15% between invocations even on the min statistic; a genuine
  // regression that matters is well past 1.4x.
  add_metric(report, name, "ns/op", m, Stat::Min, /*higher_is_better=*/false,
             40.0);
}

/// An events/s row: one replication of `config` per repeat.
void add_events_per_s(BenchReport& report, const char* name,
                      const core::ScenarioConfig& config, const Pin& repeats,
                      const SuiteOptions& options) {
  const Measurement m = measure(
      [&config] {
        const std::uint64_t start = obs::monotonic_ns();
        const std::uint64_t events = core::run_once(config, 0).events_executed;
        const double wall_s = seconds_since(start);
        ALERT_INVARIANT(events > 0 && wall_s > 0.0,
                        "macro kernel executed no events");
        return static_cast<double>(events) / wall_s;
      },
      options_for(options, repeats));
  add_metric(report, name, "events/s", m, Stat::Median,
             /*higher_is_better=*/true, 30.0);
}

void add_peak_rss(BenchReport& report) {
  BenchMetric rss;
  rss.name = "peak_rss_bytes";
  rss.unit = "bytes";
  rss.value = static_cast<double>(obs::peak_rss_bytes());
  rss.repeats = 1;
  rss.higher_is_better = false;
  // Wide: RSS folds in allocator behaviour; the gate is for catching
  // leaks-at-scale, not kB drift.
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

[[nodiscard]] BenchReport run_core_suite(const SuiteOptions& options) {
  BenchReport report = make_report("core");
  add_ns_per_op(report, "ns_per_event_dispatch", kDispatchEvents,
                run_dispatch_hold, options);
  const QueryTopology topology(kQueryNodes.at(options.smoke));
  add_ns_per_op(
      report, "ns_per_neighbour_query", kQueryCount,
      [&topology](std::size_t n) { return topology.run_queries(n); },
      options);
  add_ns_per_op(report, "ns_per_sha1_512b", kSha1Ops, run_sha1_512b, options);
  add_ns_per_op(report, "ns_per_xtea_ctr_512b", kXteaOps, run_xtea_ctr_512b,
                options);
  add_ns_per_op(report, "ns_per_rsa_encrypt", kRsaEncryptOps, run_rsa_encrypt,
                options);
  const RsaDecryptKernel decrypt;
  add_ns_per_op(
      report, "ns_per_rsa_decrypt", kRsaDecryptOps,
      [&decrypt](std::size_t n) { return decrypt.run(n); }, options);
  add_ns_per_op(report, "ns_per_keygen", kKeygenOps, run_keygen, options);
  add_events_per_s(report, "events_per_s",
                   macro_scenario(kMacroNodes.at(options.smoke),
                                  static_cast<double>(
                                      kMacroDurationS.at(options.smoke))),
                   kMacroRepeats, options);
  add_peak_rss(report);
  return report;
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
  add_ns_per_op(
      report, "ns_per_neighbour_query_grid", kScaleQueryCount,
      [&topology](std::size_t n) { return topology.run_queries(n); },
      options);
  add_events_per_s(
      report, "events_per_s_10k",
      scale_scenario(kScaleMacroNodes.at(options.smoke),
                     static_cast<double>(
                         kScaleMacroDurationS.at(options.smoke))),
      kScaleMacroRepeats, options);
  add_peak_rss(report);
  return report;
}

/// Every registry campaign at 1 rep on the driver's default thread count,
/// as `alertsim-campaign --all --reps 1` runs them, each repeat on an
/// emptied cache. No units/s row: every cold pass executes the same units,
/// so units/s would only restate the wall time.
[[nodiscard]] BenchReport run_paper_suite(const SuiteOptions& options) {
  BenchReport report = make_report("paper");
  const fs::path pass_dir = (options.work_dir.empty()
                                 ? fs::temp_directory_path()
                                 : fs::path(options.work_dir)) /
                            "alertsim-perf-paper";
  std::vector<campaign::CampaignSpec> specs;
  if (options.smoke) {
    const campaign::FigureDef* def = campaign::find_figure(kPaperSmokeFigure);
    ALERT_INVARIANT(def != nullptr, "smoke paper figure is not registered");
    specs.push_back(def->build());
  } else {
    for (const campaign::FigureDef& def : campaign::figure_registry()) {
      specs.push_back(def.build());
    }
  }

  campaign::CampaignOptions engine;
  engine.reps = 1;
  engine.cache_dir = (pass_dir / "cache").string();
  engine.print = false;
  std::size_t first_executed = 0;
  const Measurement wall = measure(
      [&] {
        std::error_code ec;
        fs::remove_all(pass_dir, ec);
        fs::create_directories(pass_dir, ec);
        const std::uint64_t start = obs::monotonic_ns();
        std::size_t units = 0;
        std::size_t executed = 0;
        std::size_t cached = 0;
        for (const campaign::CampaignSpec& spec : specs) {
          campaign::CampaignOptions run = engine;
          run.metrics_out = (pass_dir / (spec.name + ".json")).string();
          const campaign::CampaignOutcome outcome =
              campaign::run_campaign(spec, run);
          units += outcome.units_total;
          executed += outcome.executed;
          cached += outcome.cache_hits;
        }
        const double wall_s = seconds_since(start);
        if (first_executed == 0) first_executed = executed;
        ALERT_INVARIANT(executed > 0 && executed == first_executed &&
                            executed + cached == units,
                        "a cold paper pass executed a different set of units");
        return wall_s;
      },
      options_for(options, kPaperRepeats));
  add_metric(report, "paper_wall_s", "s", wall, Stat::Median,
             /*higher_is_better=*/false, 35.0);
  {
    std::error_code ec;
    fs::remove_all(pass_dir, ec);
  }
  add_peak_rss(report);
  return report;
}

}  // namespace

const std::vector<std::string>& suite_names() {
  static const std::vector<std::string> names{"core", "scale", "paper"};
  return names;
}

std::string baseline_filename(std::string_view suite) {
  return "BENCH_" + std::string(suite) + ".json";
}

std::optional<BenchReport> run_suite(std::string_view suite,
                                     const SuiteOptions& options) {
  if (suite == "core") return run_core_suite(options);
  if (suite == "scale") return run_scale_suite(options);
  if (suite == "paper") return run_paper_suite(options);
  return std::nullopt;
}

}  // namespace alert::perf
