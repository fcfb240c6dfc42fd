// alertsim-perf: the pinned benchmark driver behind the committed
// BENCH_core.json / BENCH_campaign.json baselines and the CI perf-gate
// (docs/BENCHMARKS.md). Three modes:
//
//   --run              measure one suite (or all) and write the reports
//   --check BASELINE   measure the baseline's suite fresh (or read
//                      --current FILE) and gate it against the baseline
//                      with each metric's committed tolerance, widened by
//                      --scale on noisy runners
//   --update-baseline  re-measure and overwrite the repo-root baselines
//
// Exit codes: 0 = pass, 1 = regression or missing metric, 2 = usage /
// schema / I/O error. --self-check runs the whole pipeline at smoke scale
// and proves the gate trips on an injected regression (ctest perf.driver_
// selfcheck and the CI perf-gate self-test both call it).
//
// Usage:
//   alertsim-perf --list
//   alertsim-perf --run [--suite core|campaign|scale|lint|all] [--out-dir DIR]
//   alertsim-perf --check BENCH_core.json [--scale 2.0] [--current FILE]
//   alertsim-perf --update-baseline [--suite all] [--out-dir .]
//   alertsim-perf --self-check [--work-dir DIR]
//   Shared: [--smoke] [--repeats N] [--log-level L]

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "perf/compare.hpp"
#include "perf/report.hpp"
#include "perf/suite.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

namespace fs = std::filesystem;
using namespace alert;

int usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "alertsim-perf: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: alertsim-perf (--list | --run | --check BASELINE |\n"
      "                      --update-baseline | --self-check)\n"
      "       [--suite core|campaign|scale|lint|all] [--out-dir DIR] [--current FILE]\n"
      "       [--scale X] [--smoke] [--repeats N] [--work-dir DIR]\n"
      "       [--log-level L]\n");
  return 2;
}

std::vector<std::string> resolve_suites(const std::string& suite,
                                        std::string* error) {
  if (suite == "all") return perf::suite_names();
  for (const std::string& name : perf::suite_names()) {
    if (name == suite) return {name};
  }
  *error = "unknown suite '" + suite + "' (see --list)";
  return {};
}

std::optional<perf::BenchReport> measure_suite(const std::string& suite,
                                               const perf::SuiteOptions& opts) {
  std::fprintf(stderr, "alertsim-perf: measuring suite '%s'%s...\n",
               suite.c_str(), opts.smoke ? " (smoke scale)" : "");
  return perf::run_suite(suite, opts);
}

/// Print the gate table and return the gate exit code (0 pass, 1 fail).
int render_gate(const std::string& suite, const perf::ComparisonReport& cmp) {
  std::printf("suite '%s': %s\n%s", suite.c_str(),
              cmp.passed() ? "PASS" : "FAIL", cmp.render().c_str());
  std::printf(
      "  %zu ok, %zu improved, %zu regressed, %zu missing, %zu new\n",
      cmp.count(perf::Verdict::Ok), cmp.count(perf::Verdict::Improved),
      cmp.count(perf::Verdict::Regressed),
      cmp.count(perf::Verdict::MissingInCurrent),
      cmp.count(perf::Verdict::NewInCurrent));
  return cmp.passed() ? 0 : 1;
}

int run_mode(const std::vector<std::string>& suites, const std::string& out_dir,
             const perf::SuiteOptions& opts) {
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  for (const std::string& suite : suites) {
    const auto report = measure_suite(suite, opts);
    if (!report) return usage(("suite '" + suite + "' failed").c_str());
    const std::string path =
        (fs::path(out_dir) / perf::baseline_filename(suite)).string();
    if (!report->write_file(path)) {
      std::fprintf(stderr, "alertsim-perf: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu metrics, version %s)\n", path.c_str(),
                report->metrics.size(), report->version.c_str());
  }
  return 0;
}

int check_mode(const std::string& baseline_path, const std::string& current,
               const perf::SuiteOptions& opts,
               const perf::CompareOptions& compare) {
  std::string error;
  const auto baseline = perf::load_report_file(baseline_path, &error);
  if (!baseline) {
    std::fprintf(stderr, "alertsim-perf: bad baseline %s: %s\n",
                 baseline_path.c_str(), error.c_str());
    return 2;
  }
  std::optional<perf::BenchReport> measured;
  if (current.empty()) {
    measured = measure_suite(baseline->suite, opts);
    if (!measured) {
      return usage(("baseline names unknown suite '" + baseline->suite +
                    "'").c_str());
    }
  } else {
    measured = perf::load_report_file(current, &error);
    if (!measured) {
      std::fprintf(stderr, "alertsim-perf: bad current %s: %s\n",
                   current.c_str(), error.c_str());
      return 2;
    }
    if (measured->suite != baseline->suite) {
      std::fprintf(stderr,
                   "alertsim-perf: suite mismatch: baseline '%s' vs current "
                   "'%s'\n",
                   baseline->suite.c_str(), measured->suite.c_str());
      return 2;
    }
  }
  return render_gate(baseline->suite,
                     perf::compare_reports(*baseline, *measured, compare));
}

/// End-to-end smoke proof that the pipeline and the gate work: a smoke-scale
/// core run must pass against itself, a x10 perturbation of one metric per
/// direction must fail, and a dropped metric must fail. Exits 0 only when
/// every leg behaves.
int self_check(const std::string& work_dir) {
  perf::SuiteOptions opts;
  opts.smoke = true;
  opts.work_dir = work_dir;

  const auto report = measure_suite("core", opts);
  if (!report) return usage("self-check: core suite failed");

  // Round-trip through the on-disk schema so the serializer is covered too.
  const fs::path dir =
      work_dir.empty() ? fs::temp_directory_path() / "alertsim-perf-selfcheck"
                       : fs::path(work_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = (dir / "selfcheck_core.json").string();
  if (!report->write_file(path)) {
    std::fprintf(stderr, "alertsim-perf: self-check cannot write %s\n",
                 path.c_str());
    return 2;
  }
  std::string error;
  const auto loaded = perf::load_report_file(path, &error);
  fs::remove_all(dir, ec);
  if (!loaded) {
    std::fprintf(stderr, "alertsim-perf: self-check round-trip failed: %s\n",
                 error.c_str());
    return 1;
  }

  const perf::CompareOptions compare;
  int failures = 0;
  const auto expect = [&failures](const char* leg, bool got, bool want) {
    const bool ok = got == want;
    std::printf("self-check: %-28s %s\n", leg, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  expect("identity passes",
         perf::compare_reports(*loaded, *report, compare).passed(), true);

  perf::BenchReport slow = *report;  // lower-is-better metric regresses
  for (perf::BenchMetric& m : slow.metrics) {
    if (m.name == "ns_per_event_dispatch") m.value *= 10.0;
  }
  expect("x10 slowdown trips gate",
         perf::compare_reports(*loaded, slow, compare).passed(), false);

  perf::BenchReport starved = *report;  // higher-is-better metric regresses
  for (perf::BenchMetric& m : starved.metrics) {
    if (m.name == "events_per_s") m.value /= 10.0;
  }
  expect("x10 throughput drop trips",
         perf::compare_reports(*loaded, starved, compare).passed(), false);

  perf::BenchReport dropped = *report;  // a silently dropped bench fails
  std::erase_if(dropped.metrics, [](const perf::BenchMetric& m) {
    return m.name == "ns_per_neighbour_query";
  });
  expect("dropped metric trips gate",
         perf::compare_reports(*loaded, dropped, compare).passed(), false);

  expect("rejects malformed schema",
         perf::load_report("{\"schema\":\"nonsense/9\"}").has_value(), false);

  std::printf("self-check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = util::CliArgs::parse(argc, argv, &error);
  if (!args) return usage(error.c_str());

  const bool list = args->get("list", false);
  const bool run = args->get("run", false);
  const bool update = args->get("update-baseline", false);
  const bool selfcheck = args->get("self-check", false);
  const std::string check = args->get("check", std::string());
  const std::string suite = args->get("suite", std::string("all"));
  const std::string out_dir =
      args->get("out-dir", std::string(update ? "." : "perf-out"));
  const std::string current = args->get("current", std::string());
  const std::string log_level = args->get("log-level", std::string("none"));

  perf::SuiteOptions opts;
  opts.smoke = args->get("smoke", false);
  const std::int64_t repeats = args->get("repeats", std::int64_t{0});
  opts.work_dir = args->get("work-dir", std::string());

  perf::CompareOptions compare;
  compare.tolerance_scale = args->get("scale", 1.0);

  if (const auto bad = args->rejection()) return usage(bad->c_str());
  if (const auto level = util::parse_log_level(log_level)) {
    util::set_log_level(*level);
  } else {
    return usage(("bad --log-level=" + log_level).c_str());
  }
  if (repeats < 0) return usage("--repeats must be >= 0");
  opts.repeats = static_cast<std::size_t>(repeats);
  if (compare.tolerance_scale <= 0.0) return usage("--scale must be > 0");

  const int modes = static_cast<int>(list) + static_cast<int>(run) +
                    static_cast<int>(update) + static_cast<int>(selfcheck) +
                    static_cast<int>(!check.empty());
  if (modes != 1) {
    return usage("pick exactly one of --list / --run / --check / "
                 "--update-baseline / --self-check");
  }

  if (list) {
    for (const std::string& name : perf::suite_names()) {
      std::printf("%s  -> %s\n", name.c_str(),
                  perf::baseline_filename(name).c_str());
    }
    return 0;
  }
  if (selfcheck) return self_check(opts.work_dir);
  if (!check.empty()) return check_mode(check, current, opts, compare);

  std::vector<std::string> suites = resolve_suites(suite, &error);
  if (suites.empty()) return usage(error.c_str());
  return run_mode(suites, out_dir, opts);
}
